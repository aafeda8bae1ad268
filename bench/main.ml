(* Benchmark harness.

   Part 1: Bechamel micro-benchmarks — one Test.make per operation that a
   table or figure in the paper depends on (crypto primitive costs behind
   Figure 8 and the Section 7.2 table; FBS per-datagram send/receive costs
   behind Figure 8's FBS rows; key-derivation and cache operations behind
   Figure 11; FAM classification behind Section 7.1; keying-scheme
   comparisons behind Sections 2.1/2.2).

   Part 2: the figure harness itself — prints the same rows/series the
   paper's evaluation reports (Figures 8-14 plus the crypto table and
   ablations), via the shared [Fbsr_experiments] library. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let datagram = Fbsr_experiments.Fixture.mtu_payload (* an MTU-sized payload *)
let des_key = Fbsr_crypto.Des.of_string "k3yk3yk3"
let iv = "initvect"
let mac_key = String.make 16 'k'
let suite_paper = Fbsr_fbs.Suite.paper_md5_des
let suite_nop = Fbsr_fbs.Suite.nop

(* A pair of FBS engines with a synchronous local resolver, pre-warmed so
   the steady-state benches measure the cached fast path (Figure 6); the
   setup itself lives in [Fbsr_experiments.Fixture]. *)
let fbs_fixture suite ~secret =
  let p, attrs, wire = Fbsr_experiments.Fixture.warm_pair ~suite ~secret () in
  ( p.Fbsr_experiments.Fixture.sender,
    p.Fbsr_experiments.Fixture.receiver,
    p.Fbsr_experiments.Fixture.src,
    attrs,
    wire )

let es_paper, ed_paper, src_paper, attrs_paper, wire_paper =
  fbs_fixture suite_paper ~secret:true

(* Cross-flow batched sealing fixture: one sender with [Des_bitslice.lanes]
   warm flows (distinct source ports) and a batch sized to auto-flush
   exactly when every lane is occupied.  The bench rotates through the
   flows, so the measured per-call cost is the amortized per-datagram cost
   of the bitsliced path: 62 enqueues plus one 63-chain lockstep flush. *)
let batch_pair, batch_attrs = Fbsr_experiments.Fixture.warm_flows ~suite:suite_paper ()
let send_batch = Fbsr_fbs.Engine.Batch.create batch_pair.Fbsr_experiments.Fixture.sender
let batch_i = ref 0

(* Batched receive fixture: the decap mirror of the sealing batch.  One
   pre-sealed wire per warm flow (repeat receives stay fresh — the
   fixture engines run with strict replay off), rotated through the open
   lane of a [Batch] sized to auto-flush exactly when every lane is occupied,
   so the per-call cost is the amortized per-datagram cost of the
   cross-flow bitsliced open: 62 prologue+enqueues plus one 63-chain
   sweep-and-verify flush. *)
let rx_batch_wires =
  Array.map
    (fun attrs ->
      match
        Fbsr_fbs.Engine.send_sync batch_pair.Fbsr_experiments.Fixture.sender
          ~now:60.0 ~attrs ~secret:true ~payload:datagram
      with
      | Ok wire -> wire
      | Error e ->
          failwith
            (Fmt.str "bench fixture: rx batch seal: %a" Fbsr_fbs.Engine.pp_error e))
    batch_attrs

let rx_batch =
  Fbsr_fbs.Engine.Batch.create batch_pair.Fbsr_experiments.Fixture.receiver

let rx_batch_i = ref 0

(* Bitsliced-kernel fixtures: one full flush of [lanes] MTU chains under
   distinct keys, and one MTU ciphertext for the receive-side slicing. *)
let bs_jobs =
  let n = Fbsr_crypto.Des_bitslice.lanes in
  let padded = Fbsr_crypto.Des.padded_length (String.length datagram) in
  Array.init n (fun i ->
      let key = Fbsr_crypto.Des.of_string (Printf.sprintf "bskey%03d" i) in
      Fbsr_crypto.Des_bitslice.cbc_job ~key ~iv ~src:datagram ~src_pos:0
        ~src_len:(String.length datagram)
        ~dst:(Bytes.create padded) ~dst_pos:0)

let des_ct_1460 = Fbsr_crypto.Des.encrypt_cbc ~iv des_key datagram

let es_nop, _, _, attrs_nop, _ = fbs_fixture suite_nop ~secret:true

let es_auth, ed_auth, src_auth, attrs_auth, wire_auth =
  fbs_fixture suite_paper ~secret:false

let es_desmac, ed_desmac, src_desmac, attrs_desmac, wire_desmac =
  fbs_fixture Fbsr_fbs.Suite.des_mac_des ~secret:true

let es_des3, ed_des3, src_des3, attrs_des3, wire_des3 =
  fbs_fixture Fbsr_fbs.Suite.md5_des3 ~secret:true

(* The non-DES leaf suite added through the armor registry alone. *)
let es_sha1ctr, ed_sha1ctr, src_sha1ctr, attrs_sha1ctr, wire_sha1ctr =
  fbs_fixture Fbsr_fbs.Suite.hmac_sha1_ctr ~secret:true

(* Combined fast path fixture (Section 7.2): warm table + sealed sends. *)
let fp_engine, fp_table, fp_flow_key =
  let p = Fbsr_experiments.Fixture.engine_pair ~suite:suite_paper () in
  let s = p.Fbsr_experiments.Fixture.src and d = p.Fbsr_experiments.Fixture.dst in
  let es = p.Fbsr_experiments.Fixture.sender in
  let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create 55) in
  let fp = Fbsr_fbs_ip.Fast_path.create ~alloc () in
  (* Prime one entry with a derived key. *)
  let sfl =
    match
      Fbsr_fbs_ip.Fast_path.lookup fp ~now:60.0 ~protocol:17
        ~src:(Fbsr_fbs.Principal.to_string s) ~src_port:1000
        ~dst:(Fbsr_fbs.Principal.to_string d) ~dst_port:2000
    with
    | Fbsr_fbs_ip.Fast_path.Miss sfl -> sfl
    | Fbsr_fbs_ip.Fast_path.Hit (sfl, _) -> sfl
  in
  let key = ref "" in
  Fbsr_fbs.Engine.derive_flow_key es ~sfl ~src:s ~dst:d (function
    | Ok k -> key := k
    | Error _ -> failwith "bench fixture: derive failed");
  Fbsr_fbs_ip.Fast_path.install_key fp ~sfl ~flow_key:!key;
  (es, fp, !key)

let fp_src = "10.9.0.1"
let fp_dst = "10.9.0.2"

(* Keying fixtures for the modexp benches. *)
let dh_small = Lazy.force Fbsr_crypto.Dh.test_group
let dh_1024 = Lazy.force Fbsr_crypto.Dh.oakley2
let bench_rng = Fbsr_util.Rng.create 7
let dh_small_priv = Fbsr_crypto.Dh.gen_private dh_small bench_rng
let dh_small_pub = Fbsr_crypto.Dh.public dh_small dh_small_priv
let dh_1024_priv = Fbsr_crypto.Dh.gen_private dh_1024 bench_rng
let dh_1024_pub = Fbsr_crypto.Dh.public dh_1024 dh_1024_priv
let bbs = Fbsr_crypto.Bbs.create ~modulus_bits:256 bench_rng ~seed:"bench-bbs-seed"

let triple_hash (sfl, a, b) =
  let open Fbsr_util.Crc32 in
  let h = update_int64 0 sfl in
  let h = update h a 0 (String.length a) in
  update h b 0 (String.length b)

let triple_equal (s1, a1, b1) (s2, a2, b2) =
  Int64.equal s1 s2 && String.equal a1 a2 && String.equal b1 b2

let cache : (int64 * string * string, string) Fbsr_fbs.Cache.t =
  Fbsr_fbs.Cache.create ~sets:128 ~hash:triple_hash ~equal:triple_equal ()

let () = Fbsr_fbs.Cache.insert cache (42L, "10.9.0.2", "10.9.0.1") "flowkey"
let alloc_for_fam = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create 77)
let fam_policy = Fbsr_fbs.Policy_five_tuple.make ~alloc:alloc_for_fam ()

let fam_attrs =
  Fbsr_fbs.Fam.attrs ~protocol:6 ~src_port:1234 ~dst_port:80
    ~src:(Fbsr_fbs.Principal.of_string "10.9.0.1")
    ~dst:(Fbsr_fbs.Principal.of_string "10.9.0.2")
    ()

let lcg = Fbsr_util.Lcg.create 99

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let stage = Staged.stage

let crypto_tests =
  Test.make_grouped ~name:"crypto"
    [
      (* Section 7.2 table: CryptoLib DES-CBC 549 kB/s, MD5 7060 kB/s. *)
      Test.make ~name:"des-cbc-1460B"
        (stage (fun () -> Fbsr_crypto.Des.encrypt_cbc ~iv des_key datagram));
      Test.make ~name:"md5-1460B" (stage (fun () -> Fbsr_crypto.Md5.digest datagram));
      (* Bitsliced kernel (DESIGN.md §6c): a full 63-chain lockstep flush
         (divide by [lanes] for the per-datagram cost) and the
         single-ciphertext decrypt that slices one chain across lanes. *)
      Test.make ~name:"des-bitsliced-cbc-63x1460B"
        (stage (fun () -> Fbsr_crypto.Des_bitslice.encrypt_cbc_jobs bs_jobs));
      Test.make ~name:"des-bitsliced-decrypt-1460B"
        (stage (fun () ->
             Fbsr_crypto.Des_bitslice.decrypt_cbc_sub ~iv des_key ~src:des_ct_1460
               ~pos:0 ~len:(String.length des_ct_1460)));
      Test.make ~name:"sha1-1460B" (stage (fun () -> Fbsr_crypto.Sha1.digest datagram));
      Test.make ~name:"prefix-mac-md5-1460B"
        (stage (fun () ->
             Fbsr_crypto.Mac.prefix Fbsr_crypto.Hash.md5 ~key:mac_key [ datagram ]));
      Test.make ~name:"hmac-md5-1460B"
        (stage (fun () ->
             Fbsr_crypto.Mac.hmac Fbsr_crypto.Hash.md5 ~key:mac_key [ datagram ]));
      (* Master key computation cost (MKC miss): one modular exponentiation. *)
      Test.make ~name:"dh-shared-61bit"
        (stage (fun () -> Fbsr_crypto.Dh.shared dh_small dh_small_priv dh_small_pub));
      Test.make ~name:"dh-shared-1024bit-oakley2"
        (stage (fun () -> Fbsr_crypto.Dh.shared dh_1024 dh_1024_priv dh_1024_pub));
      (* Per-datagram key generation under host-pair keying (Section 2.2). *)
      Test.make ~name:"bbs-8-bytes" (stage (fun () -> Fbsr_crypto.Bbs.bytes bbs 8));
      (* Confounder generation is nearly free (Section 5.3). *)
      Test.make ~name:"lcg-confounder" (stage (fun () -> Fbsr_util.Lcg.next_u32 lcg));
      Test.make ~name:"crc32-1460B" (stage (fun () -> Fbsr_util.Crc32.string datagram));
      (* Section 5.3's single-pass data-touching optimization. *)
      Test.make ~name:"mac+encrypt-fused-1460B"
        (stage (fun () ->
             Fbsr_crypto.Fused.mac_and_encrypt ~mac_key ~des_key ~iv
               ~prefix_parts:[ "conf"; "ts" ] datagram));
      Test.make ~name:"mac+encrypt-two-pass-1460B"
        (stage (fun () ->
             Fbsr_crypto.Fused.mac_then_encrypt ~mac_key ~des_key ~iv
               ~prefix_parts:[ "conf"; "ts" ] datagram));
    ]

let fbs_tests =
  Test.make_grouped ~name:"fbs"
    [
      (* Figure 8 FBS rows: per-datagram send/receive on the warm path.
         The send row goes through cross-flow batched sealing (the
         production gateway path): rotating over 63 warm flows, each call
         enqueues one deferred chain and every 63rd triggers the bitsliced
         flush, so the OLS slope is the amortized per-datagram cost.  The
         [-scalar-] row keeps the unbatched measurement for continuity. *)
      Test.make ~name:"send-des+md5-1460B"
        (stage (fun () ->
             let i = !batch_i in
             batch_i := if i + 1 = Array.length batch_attrs then 0 else i + 1;
             Fbsr_fbs.Engine.send ~batch:send_batch
               batch_pair.Fbsr_experiments.Fixture.sender ~now:60.0
               ~attrs:(Array.unsafe_get batch_attrs i) ~secret:true ~payload:datagram
               (fun _ -> ())));
      Test.make ~name:"send-des+md5-scalar-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.send_sync es_paper ~now:60.0 ~attrs:attrs_paper
               ~secret:true ~payload:datagram));
      Test.make ~name:"receive-des+md5-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.receive_sync ed_paper ~now:60.0 ~src:src_paper
               ~wire:wire_paper));
      (* The receive-side twin of the batched send row: each call runs
         the scalar prologue and defers the body open; every 63rd call
         flushes one cross-flow bitsliced sweep over all lanes. *)
      Test.make ~name:"receive-des+md5-batched-1460B"
        (stage (fun () ->
             let i = !rx_batch_i in
             rx_batch_i := if i + 1 = Array.length rx_batch_wires then 0 else i + 1;
             Fbsr_fbs.Engine.receive ~batch:rx_batch
               batch_pair.Fbsr_experiments.Fixture.receiver ~now:60.0
               ~src:batch_pair.Fbsr_experiments.Fixture.src
               ~wire:(Array.unsafe_get rx_batch_wires i)
               (fun _ -> ())));
      Test.make ~name:"send-auth-only-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.send_sync es_auth ~now:60.0 ~attrs:attrs_auth
               ~secret:false ~payload:datagram));
      Test.make ~name:"receive-auth-only-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.receive_sync ed_auth ~now:60.0 ~src:src_auth
               ~wire:wire_auth));
      Test.make ~name:"send-nop-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.send_sync es_nop ~now:60.0 ~attrs:attrs_nop ~secret:true
               ~payload:datagram));
      (* Alternative suites: footnote 12's DES-for-everything, and 3DES. *)
      Test.make ~name:"send-desmac+des-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.send_sync es_desmac ~now:60.0 ~attrs:attrs_desmac
               ~secret:true ~payload:datagram));
      Test.make ~name:"send-md5+3des-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.send_sync es_des3 ~now:60.0 ~attrs:attrs_des3 ~secret:true
               ~payload:datagram));
      Test.make ~name:"receive-desmac+des-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.receive_sync ed_desmac ~now:60.0 ~src:src_desmac
               ~wire:wire_desmac));
      Test.make ~name:"receive-md5+3des-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.receive_sync ed_des3 ~now:60.0 ~src:src_des3
               ~wire:wire_des3));
      Test.make ~name:"send-hmacsha1+sha1ctr-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.send_sync es_sha1ctr ~now:60.0 ~attrs:attrs_sha1ctr
               ~secret:true ~payload:datagram));
      Test.make ~name:"receive-hmacsha1+sha1ctr-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.receive_sync ed_sha1ctr ~now:60.0 ~src:src_sha1ctr
               ~wire:wire_sha1ctr));
      (* Section 7.2's combined FST+TFKC probe vs the generic two-lookup
         path (the rest of send processing is identical). *)
      Test.make ~name:"fast-path-probe+seal-1460B"
        (stage (fun () ->
             match
               Fbsr_fbs_ip.Fast_path.lookup fp_table ~now:60.0 ~protocol:17 ~src:fp_src
                 ~src_port:1000 ~dst:fp_dst ~dst_port:2000
             with
             | Fbsr_fbs_ip.Fast_path.Hit (sfl, flow_key) ->
                 Fbsr_fbs.Engine.send_sealed fp_engine ~now:60.0 ~sfl ~flow_key
                   ~secret:true ~payload:datagram
             | Fbsr_fbs_ip.Fast_path.Miss _ -> failwith "unexpected miss"));
      Test.make ~name:"seal-only-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.seal fp_engine ~now:60.0
               ~sfl:(Fbsr_fbs.Sfl.of_int64 42L) ~flow_key:fp_flow_key ~secret:true
               ~payload:datagram));
      (* Figure 11's unit of work: a flow-key cache probe. *)
      Test.make ~name:"cache-hit"
        (stage (fun () -> Fbsr_fbs.Cache.find cache (42L, "10.9.0.2", "10.9.0.1")));
      Test.make ~name:"cache-miss"
        (stage (fun () -> Fbsr_fbs.Cache.find cache (43L, "10.9.0.2", "10.9.0.1")));
      (* Section 7.1 policy: one FAM classification. *)
      Test.make ~name:"fam-five-tuple-map"
        (stage (fun () -> Fbsr_fbs.Policy_five_tuple.map fam_policy ~now:1.0 fam_attrs));
      (* Flow key derivation (TFKC miss, MKC hit). *)
      Test.make ~name:"flow-key-derivation"
        (stage (fun () ->
             Fbsr_fbs.Keying.flow_key ~hash:Fbsr_crypto.Hash.md5
               ~sfl:(Fbsr_fbs.Sfl.of_int64 77L) ~master:mac_key
               ~src:(Fbsr_fbs.Principal.of_string "10.9.0.1")
               ~dst:(Fbsr_fbs.Principal.of_string "10.9.0.2")));
      Test.make ~name:"header-encode+decode"
        (stage (fun () ->
             let h =
               {
                 Fbsr_fbs.Header.sfl = Fbsr_fbs.Sfl.of_int64 9L;
                 suite = suite_paper;
                 secret = true;
                 confounder = 0xdeadbeef;
                 timestamp = 12345;
                 mac = mac_key;
               }
             in
             Fbsr_fbs.Header.decode (Fbsr_fbs.Header.encode h ^ "body")));
    ]

let all_tests = Test.make_grouped ~name:"fbs-repro" [ crypto_tests; fbs_tests ]

(* ------------------------------------------------------------------ *)
(* Sharded-engine throughput rows                                      *)
(* ------------------------------------------------------------------ *)

(* Aggregate send throughput of the domain-sharded engine at 1/2/4/8
   shards.  Bechamel's OLS sampler wants one closure in a tight loop; a
   sharded dispatch has barrier semantics (classify, fan out, join), so
   these rows are timed directly: a fixed 256-datagram Zipf batch over
   1024 warm flows, dispatched [sharded_iters] times, reported as ns per
   datagram next to the bechamel rows (same "group/name" convention, so
   the regression gate covers them identically).  The iteration count is
   NOT reduced under --quick: the per-shard engine counters land in the
   artifact's counters object, and baseline (full) and CI (quick) runs
   must agree on them exactly.

   On a single-core runner the domain fan-out is pure overhead — the
   rows still exist (the gate checks their presence), but the 4x-vs-1x
   scaling assertion in bench_diff only arms when the artifact says
   [parallel] and [cores >= 4]. *)

let sharded_counts = [ 1; 2; 4; 8 ]
let sharded_batch = 256
let sharded_flows = 1024
let sharded_iters = 24

let sharded_jobs (p : Fbsr_experiments.Fixture.sharded) =
  let wl =
    Fbsr_traffic.Zipf_workload.create ~seed:123 ~flows:sharded_flows
      ~src:p.Fbsr_experiments.Fixture.sh_src
      ~dst:p.Fbsr_experiments.Fixture.sh_dst ()
  in
  Array.map
    (fun (attrs, _) -> (attrs, datagram))
    (Fbsr_traffic.Zipf_workload.batch wl sharded_batch)

let sharded_dispatch p jobs =
  ignore
    (Fbsr_fbs.Sharded.send_all p.Fbsr_experiments.Fixture.tx ~now:60.0
       ~secret:true jobs
      : (string, Fbsr_fbs.Engine.error) result array)

(* One timed run at [n] shards: returns (ns/datagram, the pair) so the
   4-shard pair can be kept for metrics registration. *)
let sharded_measure n =
  let p = Fbsr_experiments.Fixture.sharded_pair ~seed:(90 + n) ~nshards:n () in
  let jobs = sharded_jobs p in
  sharded_dispatch p jobs;
  (* warm: every flow key derived *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to sharded_iters do
    sharded_dispatch p jobs
  done;
  let t1 = Unix.gettimeofday () in
  let ns = (t1 -. t0) *. 1e9 /. float_of_int (sharded_iters * sharded_batch) in
  (ns, p)

(* The 4-shard contention tail: per-shard span recorders on a wall cost
   clock, p99 of the [engine.seal] stage across all shards. *)
let sharded_seal_p99 () =
  let recorders =
    Array.init 4 (fun i ->
        Fbsr_util.Span.create ~capacity:16384
          ~host:(Printf.sprintf "shard%d" i) ~cost_clock:Unix.gettimeofday ())
  in
  let p =
    Fbsr_experiments.Fixture.sharded_pair ~seed:97 ~nshards:4
      ~spans:(fun i -> recorders.(i))
      ()
  in
  let jobs = sharded_jobs p in
  for _ = 0 to sharded_iters do
    sharded_dispatch p jobs
  done;
  let spans = Fbsr_util.Span.collect (Array.to_list recorders) in
  match
    List.find_opt
      (fun (s : Fbsr_util.Span.stage_stat) -> s.Fbsr_util.Span.stat_stage = "engine.seal")
      (Fbsr_util.Span.stage_stats spans)
  with
  | Some s -> s.Fbsr_util.Span.p99 *. 1e9
  | None -> 0.0

type sharded_results = {
  srows : (string * float) list;  (** merged into the benchmarks rows *)
  sjson : Fbsr_util.Json.t;  (** the artifact's "sharded" object *)
  sregister : Fbsr_util.Metrics.t -> unit;
      (** registers the 4-shard pair's per-shard probes under
          [fbs_sharded.tx.] so shard.<i> counter names reach the
          artifact without colliding with the faults run's [fbs.*]. *)
}

let sharded_bench () =
  let measured = List.map (fun n -> (n, sharded_measure n)) sharded_counts in
  let dps ns = 1e9 /. ns in
  let srows =
    List.map
      (fun (n, (ns, _)) ->
        (Printf.sprintf "fbs/sharded-send-%dshard-256x1460B" n, ns))
      measured
  in
  let seal_p99 = sharded_seal_p99 () in
  let ns_of n = fst (List.assoc n measured) in
  let sjson =
    Fbsr_util.Json.Obj
      [
        ( "cores",
          Fbsr_util.Json.Int (Fbsr_util.Domain_shim.recommended_domain_count ()) );
        ( "parallel",
          Fbsr_util.Json.Bool Fbsr_util.Domain_shim.parallelism_available );
        ( "rows",
          Fbsr_util.Json.Obj
            (List.map
               (fun (n, (ns, _)) ->
                 ( string_of_int n,
                   Fbsr_util.Json.Obj
                     [
                       ("ns_per_datagram", Fbsr_util.Json.Float ns);
                       ("datagrams_per_sec", Fbsr_util.Json.Float (dps ns));
                     ] ))
               measured) );
        ("seal_p99_ns_4shard", Fbsr_util.Json.Float seal_p99);
        ("scale_4x", Fbsr_util.Json.Float (ns_of 1 /. ns_of 4));
      ]
  in
  let p4 = snd (List.assoc 4 measured) in
  let sregister m =
    Fbsr_fbs.Sharded.register_metrics p4.Fbsr_experiments.Fixture.tx
      (Fbsr_util.Metrics.sub m "fbs_sharded.tx")
  in
  { srows; sjson; sregister }

(* ------------------------------------------------------------------ *)
(* Telemetry-plane overhead: paired interleaved measurement             *)
(* ------------------------------------------------------------------ *)

(* Cost of arming the full per-datagram telemetry plane on the batched
   send path: a telemetry-off engine pair and a telemetry-armed twin
   (heavy-hitter Flowstats sketches on every seal, plus a flight-recorder
   tick and health check per datagram on a synthetic clock advancing 1 ms
   per datagram — 1 s cadence, so one snapshot per ~1000 datagrams rides
   the measured cost).  The two twins are timed with one methodology in
   interleaved rounds, so clock drift, GC ramp and frequency scaling hit
   both sides equally; bechamel's OLS would measure them minutes apart
   and its run-to-run spread at this row's microsecond scale exceeds the
   overhead being gated.  The armed side lands in the benchmarks rows as
   [fbs/send-des+md5-telemetry-1460B] (baseline-gated like any row), and
   the artifact's "telemetry" object carries the paired numbers for
   bench_diff's same-run 5% overhead gate. *)
let telemetry_rounds = 24
let telemetry_block = 63 * 8 (* whole bitsliced flushes per round *)

let telemetry_bench () =
  let mk flowstats =
    let p, attrs =
      Fbsr_experiments.Fixture.warm_flows ~suite:suite_paper ?flowstats ()
    in
    let e = p.Fbsr_experiments.Fixture.sender in
    (p, (e, Fbsr_fbs.Engine.Batch.create e), attrs)
  in
  let _, base_batch, base_attrs = mk None in
  let tel_flowstats = Fbsr_fbs.Flowstats.create () in
  let tel_pair, tel_batch, tel_attrs =
    mk (Some (fun () -> tel_flowstats))
  in
  let tel_metrics = Fbsr_util.Metrics.create ~scope:"bench.telemetry" () in
  Fbsr_fbs.Engine.register_metrics tel_pair.Fbsr_experiments.Fixture.sender
    tel_metrics;
  let tel_ts =
    Fbsr_util.Timeseries.create ~capacity:256 ~cadence:1.0 ~host:"bench"
      ~metrics:tel_metrics ()
  in
  let tel_health = Fbsr_fbs.Health.create ~ts:tel_ts () in
  let tel_now = ref 60.0 in
  let send (e, batch) attrs i =
    Fbsr_fbs.Engine.send ~batch e ~now:60.0
      ~attrs:(Array.unsafe_get attrs (i mod Array.length attrs))
      ~secret:true ~payload:datagram
      (fun _ -> ())
  in
  let base_block () =
    for i = 0 to telemetry_block - 1 do
      send base_batch base_attrs i
    done
  in
  let tel_block () =
    for i = 0 to telemetry_block - 1 do
      let now = !tel_now +. 0.001 in
      tel_now := now;
      Fbsr_util.Timeseries.tick tel_ts ~now;
      Fbsr_fbs.Health.check tel_health ~now;
      send tel_batch tel_attrs i
    done
  in
  (* warm both twins: every flow key derived, every lane exercised *)
  base_block ();
  tel_block ();
  (* Per-side *median* over the rounds, not the sum: a major-GC slice or
     scheduler preemption landing inside one block would otherwise skew
     one side of a single paired total by several percent — the median
     drops those rounds from both sides symmetrically. *)
  let base_t = Array.make telemetry_rounds 0.0 in
  let tel_t = Array.make telemetry_rounds 0.0 in
  for r = 0 to telemetry_rounds - 1 do
    let t0 = Unix.gettimeofday () in
    base_block ();
    let t1 = Unix.gettimeofday () in
    tel_block ();
    let t2 = Unix.gettimeofday () in
    base_t.(r) <- t1 -. t0;
    tel_t.(r) <- t2 -. t1
  done;
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    let n = Array.length s in
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  in
  let per s = s *. 1e9 /. float_of_int telemetry_block in
  let base_ns = per (median base_t) and tel_ns = per (median tel_t) in
  let overhead_pct =
    if base_ns > 0.0 then (tel_ns -. base_ns) /. base_ns *. 100.0 else 0.0
  in
  let row = ("fbs/send-des+md5-telemetry-1460B", tel_ns) in
  let tjson =
    Fbsr_util.Json.Obj
      [
        ("datagrams_per_side", Fbsr_util.Json.Int (telemetry_rounds * telemetry_block));
        ("base_ns", Fbsr_util.Json.Float base_ns);
        ("telemetry_ns", Fbsr_util.Json.Float tel_ns);
        ("overhead_pct", Fbsr_util.Json.Float overhead_pct);
        ("snapshots", Fbsr_util.Json.Int (Fbsr_util.Timeseries.taken tel_ts));
        ("health_checks", Fbsr_util.Json.Int (Fbsr_fbs.Health.checks tel_health));
        ( "sketch_total",
          Fbsr_util.Json.Int
            (Fbsr_util.Sketch.total tel_flowstats.Fbsr_fbs.Flowstats.datagrams) );
      ]
  in
  (row, tjson)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let benchmark ~quick () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    (* Quick mode feeds the CI regression gate: the quota must be large
       enough that run-to-run noise on a shared runner stays well inside
       the gate's threshold, especially for the nanosecond-scale tests. *)
    if quick then Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

(* Flatten the bechamel result table to sorted (name, ns/op) rows. *)
let result_rows results =
  let rows = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> rows := (name, est) :: !rows
          | Some _ | None -> ())
        tbl)
    results;
  List.sort compare !rows

let print_results rows =
  Printf.printf "%-50s %15s\n" "benchmark" "time/op";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns >= 1e6 then Printf.sprintf "%10.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%10.2f us" (ns /. 1e3)
        else Printf.sprintf "%10.0f ns" ns
      in
      Printf.printf "%-50s %15s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* JSON artifact (--json): bechamel medians + headline registry        *)
(* counters from one small deterministic adversarial-network run.      *)
(* ------------------------------------------------------------------ *)

(* Site-wide counters only: the per-host "host.<addr>." views are noise in
   an artifact meant for run-over-run comparison, and the "span." latency
   histograms are wall-clock sums (nondeterministic; their stable summary
   is the separate "stages" object). *)
let prefixed p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* The artifact's "rev" field defaults to the working tree's revision, so
   a regenerated baseline names the code it measured without anyone
   remembering to pass it; --rev still overrides (CI passes the exact
   commit it checked out, which on a PR merge ref differs from what
   rev-parse would say). *)
let detect_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "dev"
  with _ -> "dev"

(* "crypto/..." row names carry the byte count the closure processes
   ("-1460B"; "-63x1460B" for the whole-flush lockstep row), so ns/byte
   is derivable — surfacing it as its own column lets artifact consumers
   compare primitive throughput (the Section 7.2 kB/s table) without
   re-parsing row names.  Rows without a byte suffix (modexp, PRNG
   draws, cache probes) have no meaningful per-byte cost and are
   skipped. *)
let row_bytes name =
  let n = String.length name in
  let digits_start j =
    let i = ref j in
    while !i > 0 && name.[!i - 1] >= '0' && name.[!i - 1] <= '9' do decr i done;
    !i
  in
  if n < 2 || name.[n - 1] <> 'B' then None
  else
    let i = digits_start (n - 1) in
    if i = n - 1 then None
    else
      let block = int_of_string (String.sub name i (n - 1 - i)) in
      if i > 0 && name.[i - 1] = 'x' then
        let j = digits_start (i - 1) in
        if j = i - 1 then Some block
        else Some (int_of_string (String.sub name j (i - 1 - j)) * block)
      else Some block

(* Bechamel's grouped runner emits "<group>/crypto/<row>" names, so the
   crypto segment must be accepted after any '/' — matching only a
   "crypto/" prefix silently yields an empty object. *)
let crypto_row name =
  prefixed "crypto/" name
  ||
  let p = "/crypto/" in
  let np = String.length p and n = String.length name in
  let rec go i = i + np <= n && (String.sub name i np = p || go (i + 1)) in
  go 0

let ns_per_byte_json rows =
  Fbsr_util.Json.Obj
    (List.filter_map
       (fun (name, ns) ->
         if not (crypto_row name) then None
         else
           Option.map
             (fun b -> (name, Fbsr_util.Json.Float (ns /. float_of_int b)))
             (row_bytes name))
       rows)

let counters_json m =
  let open Fbsr_util in
  Json.Obj
    (List.filter_map
       (fun (name, v) ->
         if prefixed "host." name || prefixed "span." name then None
         else
           match v with
           | Metrics.Int i -> Some (name, Json.Int i)
           | Metrics.Float f -> Some (name, Json.Float f)
           | Metrics.Hist { count; sum; _ } ->
               Some
                 (name, Json.Obj [ ("count", Json.Int count); ("sum", Json.Float sum) ]))
       (Metrics.snapshot m))

(* Datapath allocation audit: run n seal+open round trips (paper suite,
   secret, MTU payload) through the engine's zero-copy path AND through
   the retained string-based reference path, reporting buffers allocated,
   payload bytes copied, and GC-allocated bytes per datagram for both.
   Putting both paths in one artifact makes the zero-copy reduction a
   number the regression gate can check, independent of which baseline
   file it is compared against.  Deterministic: counter deltas are exact,
   and [Gc.allocated_bytes] measures allocation, not time. *)

(* On OCaml 5 the runtime folds minor-heap allocation into the Gc stats
   only at minor collections, so a raw [Gc.allocated_bytes] read taken
   mid-minor-heap mis-attributes up to a whole minor heap (~2 MB) to
   whichever measurement window the next collection happens to land in.
   Forcing a minor collection at every window boundary makes the
   per-window deltas exact and run-to-run stable. *)
let allocated_bytes_exact () =
  Gc.minor ();
  Gc.allocated_bytes ()

let datapath_json () =
  let open Fbsr_experiments in
  let p, attrs, wire0 =
    Fixture.warm_pair ~suite:Fbsr_fbs.Suite.paper_md5_des ~secret:true ()
  in
  let es = p.Fixture.sender and ed = p.Fixture.receiver in
  let payload = Fixture.mtu_payload in
  let n = 256 in
  (* --- zero-copy engine path --- *)
  let cs = Fbsr_fbs.Engine.counters es and cr = Fbsr_fbs.Engine.counters ed in
  let allocs0 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
  let copied0 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
  let g0 = allocated_bytes_exact () in
  for _ = 1 to n do
    match Fbsr_fbs.Engine.send_sync es ~now:60.0 ~attrs ~secret:true ~payload with
    | Error e -> failwith (Fmt.str "datapath bench send: %a" Fbsr_fbs.Engine.pp_error e)
    | Ok wire -> (
        match Fbsr_fbs.Engine.receive_sync ed ~now:60.0 ~src:p.Fixture.src ~wire with
        | Ok _ -> ()
        | Error e ->
            failwith (Fmt.str "datapath bench receive: %a" Fbsr_fbs.Engine.pp_error e))
  done;
  let g1 = allocated_bytes_exact () in
  let allocs1 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
  let copied1 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
  (* --- string-based reference path, identical inputs --- *)
  let suite = Fbsr_fbs.Suite.paper_md5_des in
  let header, sfl, confounder, timestamp =
    match Fbsr_fbs.Header.decode wire0 with
    | Ok (h, _) ->
        (h, h.Fbsr_fbs.Header.sfl, h.Fbsr_fbs.Header.confounder, h.Fbsr_fbs.Header.timestamp)
    | Error _ -> failwith "datapath bench: warm wire undecodable"
  in
  ignore header;
  let flow_key = ref "" in
  Fbsr_fbs.Engine.derive_flow_key es ~sfl ~src:p.Fixture.src ~dst:p.Fixture.dst (function
    | Ok k -> flow_key := k
    | Error _ -> failwith "datapath bench: flow key derivation failed");
  let flow_key = !flow_key in
  let rc = Fbsr_oracles.Reference.create_counters () in
  let gr0 = allocated_bytes_exact () in
  for _ = 1 to n do
    let wire =
      Fbsr_oracles.Reference.seal ~counters:rc ~suite ~flow_key ~sfl ~secret:true
        ~confounder ~timestamp ~payload ()
    in
    match Fbsr_oracles.Reference.open_ ~counters:rc ~suite ~flow_key ~wire () with
    | Ok _ -> ()
    | Error _ -> failwith "datapath bench: reference open rejected own wire"
  done;
  let gr1 = allocated_bytes_exact () in
  let per x = float_of_int x /. float_of_int n in
  let perf x = x /. float_of_int n in
  Fbsr_util.Json.Obj
    [
      ("payload_bytes", Fbsr_util.Json.Int (String.length payload));
      ("datagrams", Fbsr_util.Json.Int n);
      ("allocs_per_datagram", Fbsr_util.Json.Float (per (allocs1 - allocs0)));
      ("bytes_copied_per_datagram", Fbsr_util.Json.Float (per (copied1 - copied0)));
      ("gc_bytes_per_datagram", Fbsr_util.Json.Float (perf (g1 -. g0)));
      ( "allocs_per_datagram_reference",
        Fbsr_util.Json.Float (per rc.Fbsr_oracles.Reference.allocs) );
      ( "bytes_copied_per_datagram_reference",
        Fbsr_util.Json.Float (per rc.Fbsr_oracles.Reference.bytes_copied) );
      ("gc_bytes_per_datagram_reference", Fbsr_util.Json.Float (perf (gr1 -. gr0)));
    ]

(* Closed-loop transfer smoke inside the artifact: a reduced run of the
   concurrent-bulk-transfer scenario (fbs-experiments transfers).  The
   simulation is fully seeded, so every field is deterministic and diffs
   cleanly run-over-run; a delivery or integrity failure fails the bench
   run itself rather than producing a quietly bad artifact. *)
let transfers_json () =
  let r =
    Fbsr_experiments.Transfers_scenario.run ~transfers:64
      ~bytes_per_transfer:16_384 ()
  in
  if not r.Fbsr_experiments.Transfers_scenario.ok then
    failwith "bench transfers scenario failed (delivery/integrity)";
  let open Fbsr_experiments.Transfers_scenario in
  Fbsr_util.Json.Obj
    [
      ("transfers", Fbsr_util.Json.Int r.transfers);
      ("bytes_per_transfer", Fbsr_util.Json.Int r.bytes_per_transfer);
      ("loss", Fbsr_util.Json.Float r.loss);
      ("elapsed_s", Fbsr_util.Json.Float r.elapsed_s);
      ("goodput_bps", Fbsr_util.Json.Float r.goodput_bps);
      ("total_retransmits", Fbsr_util.Json.Int r.total_retransmits);
      ("total_fast_retransmits", Fbsr_util.Json.Int r.total_fast_retransmits);
      ("total_timeouts", Fbsr_util.Json.Int r.total_timeouts);
      ("ok", Fbsr_util.Json.Bool r.ok);
    ]

(* Per-stage latency summary from the traced run: span costs come from the
   wall clock (Unix.gettimeofday), so p50/p99 measure real per-stage CPU
   cost — the per-stage decomposition of the paper's Section 7.2 numbers. *)
let stages_json spans =
  let open Fbsr_util in
  Json.Obj
    (List.map
       (fun (s : Span.stage_stat) ->
         ( s.Span.stat_stage,
           Json.Obj
             [
               ("count", Json.Int s.Span.count);
               ("p50_ns", Json.Float (s.Span.p50 *. 1e9));
               ("p99_ns", Json.Float (s.Span.p99 *. 1e9));
             ] ))
       (Span.stage_stats spans))

let emit_json ~path ~spans_path ~rev ~quick ~sharded ~telemetry rows =
  let m = Fbsr_util.Metrics.create () in
  (* Causal tracing is ON for this run: the datapath allocation audit below
     uses separate untraced engines, so the 2.0 allocs/datagram gate still
     measures the disabled-tracing path. *)
  (* Batched rx is on so the deterministic run exercises the deferred
     receive pipeline: the [fbs.engine.rxbatch.*] counters land in the
     artifact non-zero, and bench_diff's exact gate on them pins the
     batching shape run-over-run. *)
  let r =
    Fbsr_experiments.Faults.run ~seed:11 ~messages:50 ~batched_rx:true
      ~faults:Fbsr_experiments.Faults.lossy ~metrics:m ~span_capacity:16384
      ~span_cost_clock:Unix.gettimeofday ()
  in
  (* Per-shard probes from the sharded throughput fixture: counter
     values are deterministic (fixed batch x fixed iterations), so they
     diff cleanly run-over-run like the engine counters. *)
  sharded.sregister m;
  let doc =
    Fbsr_util.Json.Obj
      [
        ("schema", Fbsr_util.Json.String "fbsr-bench/1");
        ("rev", Fbsr_util.Json.String rev);
        ("quick", Fbsr_util.Json.Bool quick);
        ( "benchmarks",
          Fbsr_util.Json.Obj
            (List.map (fun (name, ns) -> (name, Fbsr_util.Json.Float ns)) rows) );
        ("ns_per_byte", ns_per_byte_json rows);
        ("counters", counters_json m);
        ("datapath", datapath_json ());
        ("stages", stages_json r.Fbsr_experiments.Faults.spans);
        ("sharded", sharded.sjson);
        ("telemetry", telemetry);
        ("transfers", transfers_json ());
      ]
  in
  let oc = open_out path in
  output_string oc (Fbsr_util.Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  match spans_path with
  | None -> ()
  | Some sp ->
      let oc = open_out sp in
      output_string oc
        (Fbsr_util.Json.to_string_pretty
           (Fbsr_util.Span.to_json r.Fbsr_experiments.Faults.spans));
      close_out oc;
      Printf.printf "wrote %s (%d spans)\n%!" sp
        (List.length r.Fbsr_experiments.Faults.spans)

let () =
  let json = ref None and spans = ref None and quick = ref false and rev = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--spans" :: path :: rest ->
        spans := Some path;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--rev" :: r :: rest ->
        rev := Some r;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: %s [--json PATH] [--spans PATH] [--quick] [--rev STR]\n\
           (unknown argument %S)\n"
          Sys.executable_name arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf
    "=== Bechamel micro-benchmarks (one per table/figure dependency) ===\n%!";
  let rows = result_rows (benchmark ~quick:!quick ()) in
  let sharded = sharded_bench () in
  let tel_row, tel_json = telemetry_bench () in
  let rows = rows @ sharded.srows @ [ tel_row ] in
  print_results rows;
  match !json with
  | Some path ->
      (* Artifact mode: medians + a deterministic counter run; skip the
         long figure harness. *)
      let rev = match !rev with Some r -> r | None -> detect_rev () in
      emit_json ~path ~spans_path:!spans ~rev ~quick:!quick ~sharded
        ~telemetry:tel_json rows
  | None ->
      (* Part 2: regenerate the paper's tables and figures. *)
      let seed = 7 and duration = 7200.0 and bytes = 1_000_000 in
      Fbsr_experiments.Experiments.run_all seed duration bytes
