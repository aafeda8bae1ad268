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

(* Span cost clock: the monotonic clock, nanosecond resolution, in
   seconds.  Defined before [open Toolkit], whose measure of the same
   name shadows the clock library. *)
let monotonic_seconds () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

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

(* Cross-flow batched sealing fixture: one sender with 63 warm flows
   (distinct source ports) and a seal batch.  The bench rotates through
   the flows, so every other call parks its chain and the next runs both
   on the two-chain kernel: the measured per-call cost is the amortized
   per-datagram cost of the batched path. *)
let batch_pair, batch_attrs = Fbsr_experiments.Fixture.warm_flows ~suite:suite_paper ()
let send_batch = Fbsr_fbs.Engine.Batch.create batch_pair.Fbsr_experiments.Fixture.sender
let batch_i = ref 0

(* Batched-seal kernel fixtures: [n] MTU chains under distinct keys, run
   in pairs on the two-chain kernel as a seal batch runs them.  A job
   snapshots its IV and carries its chain, so each run builds fresh jobs
   over the same buffers; the job records are part of the measured cost,
   as they are of a batched seal. *)
let cbc_jobs n =
  let padded = Fbsr_crypto.Des.padded_length (String.length datagram) in
  let keys =
    Array.init n (fun i -> Fbsr_crypto.Des.of_string (Printf.sprintf "bskey%03d" i))
  in
  let dsts = Array.init n (fun _ -> Bytes.create padded) in
  fun () ->
    Fbsr_crypto.Des.encrypt_cbc_jobs
      (Array.init n (fun i ->
           Fbsr_crypto.Des.cbc_job ~key:keys.(i) ~iv ~src:datagram ~src_pos:0
             ~src_len:(String.length datagram) ~dst:dsts.(i) ~dst_pos:0))

let cbc_jobs_63 = cbc_jobs 63
let cbc_jobs_2 = cbc_jobs 2

(* Receive-side ciphertexts: an MTU body, and the imix 576-byte datagram
   as FBS encrypts it (576 payload bytes behind an 8-byte UDP header pad
   to 74 blocks). *)
let des_ct_1460 = Fbsr_crypto.Des.encrypt_cbc ~iv des_key datagram

let des_ct_576 = Fbsr_crypto.Des.encrypt_cbc ~iv des_key (String.sub datagram 0 584)

(* A lone secret seal, the path of a workload that sends one datagram
   per event: the send parks the seal in a batch and the flush runs it
   alone, on the one-pass kernel (the MAC's MD5 beside the CBC chain). *)
let alone_batch = Fbsr_fbs.Engine.Batch.create es_paper

let send_alone payload () =
  Fbsr_fbs.Engine.send ~batch:alone_batch es_paper ~now:60.0 ~attrs:attrs_paper
    ~secret:true ~payload (fun _ -> ());
  Fbsr_fbs.Engine.Batch.flush alone_batch

let payload_64 = String.sub datagram 0 64
let payload_576 = String.sub datagram 0 576

let es_nop, _, _, attrs_nop, _ = fbs_fixture suite_nop ~secret:true

let es_auth, ed_auth, src_auth, attrs_auth, wire_auth =
  fbs_fixture suite_paper ~secret:false

(* Keying fixtures for the modexp benches. *)
let dh_small = Lazy.force Fbsr_crypto.Dh.test_group
let dh_1024 = Lazy.force Fbsr_crypto.Dh.oakley2
let bench_rng = Fbsr_util.Rng.create 7
let dh_small_priv = Fbsr_crypto.Dh.gen_private dh_small bench_rng
let dh_small_pub = Fbsr_crypto.Dh.public dh_small dh_small_priv
let dh_1024_priv = Fbsr_crypto.Dh.gen_private dh_1024 bench_rng
let dh_1024_pub = Fbsr_crypto.Dh.public dh_1024 dh_1024_priv
let bbs = Fbsr_crypto.Bbs.create ~modulus_bits:256 bench_rng ~seed:"bench-bbs-seed"

(* The CA's key size (RSA-768), from an rng of its own so that it leaves
   the draws of the fixtures above alone. *)
let rsa_768 = Fbsr_crypto.Rsa.generate (Fbsr_util.Rng.create 768) ~bits:768
let rsa_768_msg = "bench certificate body"
let rsa_768_sig = Fbsr_crypto.Rsa.sign rsa_768 rsa_768_msg

(* A 128-set TFKC on host 10.9.0.1, keyed as the engine keys it: each
   probe builds the datagram's key (CRC-32 index and fingerprint) as the
   send path does. *)
module Key = Fbsr_fbs.Engine.Key

let cache_local = Fbsr_fbs.Principal.of_string "10.9.0.1"
let cache_peer = Fbsr_fbs.Principal.of_string "10.9.0.2"
let flow_key sfl peer = Key.make ~local:cache_local ~sfl:(Fbsr_fbs.Sfl.of_int64 sfl) ~peer

let tfkc () : (Key.t, string) Fbsr_fbs.Cache.t =
  Fbsr_fbs.Cache.create ~sets:128 ~hash:Key.index ~fingerprint:Key.fingerprint
    ~equal:Key.equal ()

let cache = tfkc ()
let () = Fbsr_fbs.Cache.insert cache (flow_key 42L cache_peer) "flowkey"

(* The miss path under churn: a fixed sequence of 8192 accesses from 8
   peers to a 128-set TFKC.  60 % go to a fresh sfl (counter-allocated,
   each used once), the rest to 256 recurring flows drawn with a
   Zipf-like skew.  An access is the send path's: a find, and on a miss
   the join's peek and the insert.  At the end of the sequence it starts
   over on a new cache, so every pass repeats the same statistics and the
   classifier's record of inserted keys stays bounded. *)
let cache_churn =
  let rng = Fbsr_util.Rng.create 60 in
  let alloc = Fbsr_fbs.Sfl.allocator ~rng in
  let peers =
    Array.init 8 (fun i -> Fbsr_fbs.Principal.of_string (Printf.sprintf "10.9.1.%d" (i + 1)))
  in
  let recurring = Array.init 256 (fun _ -> Fbsr_fbs.Sfl.fresh alloc) in
  let accesses =
    Array.init 8192 (fun _ ->
        if Fbsr_util.Rng.int rng 10 < 6 then
          (Fbsr_fbs.Sfl.fresh alloc, Fbsr_util.Rng.choose rng peers)
        else
          let j = Fbsr_util.Rng.int rng (1 + Fbsr_util.Rng.int rng 256) in
          (recurring.(j), peers.(j mod 8)))
  in
  let c = ref (tfkc ()) and next = ref 0 in
  fun () ->
    if !next = Array.length accesses then begin
      c := tfkc ();
      next := 0
    end;
    let sfl, peer = accesses.(!next) in
    incr next;
    let key = Key.make ~local:cache_local ~sfl ~peer in
    match Fbsr_fbs.Cache.find !c key with
    | Some _ -> ()
    | None -> (
        match Fbsr_fbs.Cache.peek !c key with
        | Some _ -> ()
        | None -> Fbsr_fbs.Cache.insert !c key "flowkey")

(* One whole TFKC miss, as the send path pays it for a new flow: the
   datagram's key, the find (a cold miss, classified against the record
   of 10^5 keys the cache has already seen), the derivation from a live
   master key (an MKC hit in the warm sender's keying), the DES schedule
   and the insert.  Every call is a new flow, so the record gains a key
   per call for as long as the row runs. *)
let flow_key_miss =
  let c : (Key.t, Fbsr_fbs.Armor.flow_state) Fbsr_fbs.Cache.t =
    Fbsr_fbs.Cache.create ~sets:128 ~hash:Key.index ~fingerprint:Key.fingerprint
      ~equal:Key.equal ()
  in
  let keying = Fbsr_fbs.Engine.keying es_paper in
  let local = Fbsr_fbs.Keying.local keying
  and peer = Fbsr_fbs.Keying.local (Fbsr_fbs.Engine.keying ed_paper) in
  let seen = Fbsr_fbs.Armor.flow_state_of_key "" in
  for i = 1 to 100_000 do
    Fbsr_fbs.Cache.insert c
      (Key.make ~local ~sfl:(Fbsr_fbs.Sfl.of_int64 (Int64.of_int i)) ~peer)
      seen
  done;
  let next = ref 100_000 in
  fun () ->
    incr next;
    let sfl = Fbsr_fbs.Sfl.of_int64 (Int64.of_int !next) in
    let key = Key.make ~local ~sfl ~peer in
    match Fbsr_fbs.Cache.find c key with
    | Some _ -> ()
    | None -> (
        match Fbsr_fbs.Keying.get_master_sync keying peer with
        | Error _ -> failwith "flow-key-miss: no live master key"
        | Ok master ->
            let fk = Fbsr_fbs.Keying.flow_key ~sfl ~master ~src:local ~dst:peer in
            let entry = Fbsr_fbs.Armor.flow_state_of_key fk in
            entry.Fbsr_fbs.Armor.des_sched <- Some (Fbsr_crypto.Des.of_prefix fk);
            Fbsr_fbs.Cache.insert c key entry)

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
  ( "crypto",
    [
      (* Section 7.2 table: CryptoLib DES-CBC 549 kB/s, MD5 7060 kB/s. *)
      Test.make ~name:"des-cbc-1460B"
        (stage (fun () -> Fbsr_crypto.Des.encrypt_cbc ~iv des_key datagram));
      Test.make ~name:"md5-1460B" (stage (fun () -> Fbsr_crypto.Md5.digest datagram));
      (* The seal batch's kernel (DESIGN.md §6c): 63 chains run as 31
         two-chain pairs and one lone chain, and one two-chain pair
         (divide by the job count for the per-datagram cost). *)
      Test.make ~name:"des-cbc-jobs-63x1460B" (stage cbc_jobs_63);
      Test.make ~name:"des-cbc-jobs-2x1460B" (stage cbc_jobs_2);
      (* The receive side's decrypt: the scalar two-block kernel. *)
      Test.make ~name:"des-cbc-decrypt-1460B"
        (stage (fun () ->
             Fbsr_crypto.Des.decrypt_cbc_sub ~iv des_key ~src:des_ct_1460 ~pos:0
               ~len:(String.length des_ct_1460)));
      Test.make ~name:"des-cbc-decrypt-576B"
        (stage (fun () ->
             Fbsr_crypto.Des.decrypt_cbc_sub ~iv des_key ~src:des_ct_576 ~pos:0
               ~len:(String.length des_ct_576)));
      (* The expansion every TFKC/RFKC miss pays under the paper's suite. *)
      Test.make ~name:"des-key-schedule"
        (stage (fun () -> Fbsr_crypto.Des.of_string "k3yk3yk3"));
      Test.make ~name:"prefix-mac-md5-1460B"
        (stage (fun () -> Fbsr_crypto.Mac.prefix ~key:mac_key [ datagram ]));
      Test.make ~name:"hmac-md5-1460B"
        (stage (fun () -> Fbsr_crypto.Mac.hmac ~key:mac_key [ datagram ]));
      (* Master key computation cost (MKC miss): one modular exponentiation. *)
      Test.make ~name:"dh-shared-61bit"
        (stage (fun () -> Fbsr_crypto.Dh.shared dh_small dh_small_priv dh_small_pub));
      Test.make ~name:"dh-shared-1024bit-oakley2"
        (stage (fun () -> Fbsr_crypto.Dh.shared dh_1024 dh_1024_priv dh_1024_pub));
      (* Certificate signing and the verification every PVC miss pays. *)
      Test.make ~name:"rsa-sign-768"
        (stage (fun () -> Fbsr_crypto.Rsa.sign rsa_768 rsa_768_msg));
      Test.make ~name:"rsa-verify-768"
        (stage (fun () ->
             Fbsr_crypto.Rsa.verify (Fbsr_crypto.Rsa.public_key rsa_768) rsa_768_msg
               ~signature:rsa_768_sig));
      (* The CA's key generation, which dominates a small testbed's set-up:
         two 384-bit prime searches at the testbed's seed 42. *)
      Test.make ~name:"rsa-keygen-768"
        (stage (fun () -> Fbsr_crypto.Rsa.generate (Fbsr_util.Rng.create 42) ~bits:768));
      (* Fixed-width encoding of a 1024-bit DH value (certificates, K_{S,D}). *)
      Test.make ~name:"nat-to-bytes-1024bit"
        (stage (fun () -> Fbsr_crypto.Dh.public_to_bytes dh_1024 dh_1024_pub));
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
    ] )

let fbs_tests =
  ( "fbs",
    [
      (* Figure 8 FBS rows: per-datagram send/receive on the warm path.
         The send row goes through cross-flow batched sealing (the
         production gateway path): rotating over 63 warm flows, every
         other call parks one deferred chain and the next runs both on the
         two-chain kernel, so the OLS slope is the amortized per-datagram
         cost.  The [-scalar-] row keeps the unbatched measurement for
         continuity. *)
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
      Test.make ~name:"send-des+md5-alone-64B" (stage (send_alone payload_64));
      Test.make ~name:"send-des+md5-alone-576B" (stage (send_alone payload_576));
      Test.make ~name:"receive-des+md5-1460B"
        (stage (fun () ->
             Fbsr_fbs.Engine.receive_sync ed_paper ~now:60.0 ~src:src_paper
               ~wire:wire_paper));
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
      (* Figure 11's unit of work: a flow-key cache probe. *)
      Test.make ~name:"cache-hit"
        (stage (fun () -> Fbsr_fbs.Cache.find cache (flow_key 42L cache_peer)));
      Test.make ~name:"cache-miss"
        (stage (fun () -> Fbsr_fbs.Cache.find cache (flow_key 43L cache_peer)));
      Test.make ~name:"cache-churn" (stage cache_churn);
      (* Section 7.1 policy: one FAM classification. *)
      Test.make ~name:"fam-five-tuple-map"
        (stage (fun () -> Fbsr_fbs.Policy_five_tuple.map fam_policy ~now:1.0 fam_attrs));
      (* Flow key derivation (TFKC miss, MKC hit). *)
      Test.make ~name:"flow-key-derivation"
        (stage (fun () ->
             Fbsr_fbs.Keying.flow_key ~sfl:(Fbsr_fbs.Sfl.of_int64 77L) ~master:mac_key
               ~src:(Fbsr_fbs.Principal.of_string "10.9.0.1")
               ~dst:(Fbsr_fbs.Principal.of_string "10.9.0.2")));
      Test.make ~name:"flow-key-miss" (stage flow_key_miss);
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
    ] )

(* The netsim codecs every datagram crosses under the FBS engine: each
   row encodes and decodes one header, checksum included, so a
   regression in the one-buffer encoders or the in-place decoders shows
   here before it shows in the end-to-end benchmark. *)
let net_tests =
  let open Fbsr_netsim in
  let src = Addr.of_string "10.9.0.1" and dst = Addr.of_string "10.9.0.2" in
  let udp_64 = String.sub datagram 0 64 in
  let ip_1480 = datagram ^ String.sub datagram 0 20 in
  let ip_h =
    Ipv4.make ~ident:7 ~protocol:Ipv4.proto_udp ~src ~dst
      ~payload_length:(String.length ip_1480) ()
  in
  let tcp_1418 = String.sub datagram 0 1418 in
  let tcp_h =
    {
      Tcp_seg.src_port = 5001;
      dst_port = 5002;
      seq = 1l;
      ack_seq = 2l;
      flags = { Tcp_seg.no_flags with ack = true; psh = true };
      window = 65535;
    }
  in
  ( "net",
    [
      Test.make ~name:"udp-encode+decode-64B"
        (stage (fun () ->
             Udp.decode ~src ~dst (Udp.encode ~src ~dst ~src_port:5001 ~dst_port:7 udp_64)));
      Test.make ~name:"ipv4-encode+decode-1480B"
        (stage (fun () -> Ipv4.decode (Ipv4.encode ip_h ip_1480)));
      Test.make ~name:"tcp-encode+decode-1418B"
        (stage (fun () -> Tcp_seg.decode ~src ~dst (Tcp_seg.encode ~src ~dst tcp_h tcp_1418)));
      (* RFC 1071 over an MTU payload: the per-byte part of every
         UDP/TCP checksum. *)
      Test.make ~name:"inet-checksum-1460B"
        (stage (fun () -> Fbsr_util.Inet_checksum.sum datagram 0 (String.length datagram)));
    ] )

(* Reassembly on the receive path: [Frag.add] of an unfragmented 64 B
   datagram, with no partial datagram outstanding and with 10^4 of them
   (first fragments whose rest never came, inside their deadline).  A
   whole datagram touches no reassembly table, so the two rows should
   read alike. *)
let netsim_tests =
  let open Fbsr_netsim in
  let src = Addr.of_string "10.9.0.1" and dst = Addr.of_string "10.9.0.2" in
  let whole = String.sub datagram 0 64 in
  let h = Ipv4.make ~ident:1 ~protocol:Ipv4.proto_udp ~src ~dst ~payload_length:64 () in
  let outstanding n =
    let r = Frag.create () in
    let first = String.sub datagram 0 8 in
    for ident = 1 to n do
      let fh =
        Ipv4.make ~ident ~more_fragments:true ~protocol:Ipv4.proto_udp ~src ~dst
          ~payload_length:8 ()
      in
      ignore (Frag.add r ~now:0.0 fh first)
    done;
    r
  in
  let r0 = outstanding 0 and r10k = outstanding 10_000 in
  ( "netsim",
    [
      Test.make ~name:"frag-add-0" (stage (fun () -> Frag.add r0 ~now:1.0 h whole));
      Test.make ~name:"frag-add-10k" (stage (fun () -> Frag.add r10k ~now:1.0 h whole));
    ] )

(* The rows to run: all of them, or those whose name starts with the
   [--only] prefix, the name written as in the artifact
   ("fbs-repro/net/udp-encode+decode-64B") or without its root
   ("net/udp-encode+decode-64B"). *)
let selected_tests only =
  let keep g row =
    match only with
    | None -> true
    | Some prefix ->
        let name = g ^ "/" ^ Test.name row in
        String.starts_with ~prefix name || String.starts_with ~prefix ("fbs-repro/" ^ name)
  in
  match
    List.filter_map
      (fun (g, rows) ->
        match List.filter (keep g) rows with
        | [] -> None
        | rows -> Some (Test.make_grouped ~name:g rows))
      [ crypto_tests; fbs_tests; net_tests; netsim_tests ]
  with
  | [] -> None
  | groups -> Some (Test.make_grouped ~name:"fbs-repro" groups)

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

(* The 4-shard contention tail: per-shard span recorders on the monotonic
   cost clock, p99 of the [engine.seal] stage across all shards. *)
let sharded_seal_p99 () =
  let recorders =
    Array.init 4 (fun i ->
        Fbsr_util.Span.create ~capacity:16384
          ~host:(Printf.sprintf "shard%d" i) ~cost_clock:monotonic_seconds ())
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
let telemetry_block = 63 * 8 (* eight turns of the 63 warm flows per round *)

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

let benchmark ~quick tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    (* Quick mode feeds the CI regression gate: the quota must be large
       enough that run-to-run noise on a shared runner stays well inside
       the gate's threshold, especially for the nanosecond-scale tests. *)
    if quick then Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
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
   ("-1460B"; "-63x1460B" for 63 jobs of 1460 B), so ns/byte
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
           | Metrics.Hist { count; sum; _ } ->
               Some
                 (name, Json.Obj [ ("count", Json.Int count); ("sum", Json.Float sum) ]))
       (Metrics.snapshot m))

(* Datapath allocation audit: run n seal+open round trips (paper suite,
   secret, MTU payload) through the engine's zero-copy path AND through
   the retained string-based reference path, reporting GC-allocated bytes
   per datagram for both.  Putting both paths in one artifact makes the
   zero-copy reduction a number the regression gate can check,
   independent of which baseline file it is compared against.
   Deterministic: [Gc.allocated_bytes] measures allocation, not time. *)

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
  (* --- string-based reference path, identical inputs --- *)
  let suite = Fbsr_fbs.Suite.paper_md5_des in
  let header, sfl, confounder, timestamp =
    match Fbsr_fbs.Header.decode wire0 with
    | Ok (h, _) ->
        (h, h.Fbsr_fbs.Header.sfl, h.Fbsr_fbs.Header.confounder, h.Fbsr_fbs.Header.timestamp)
    | Error _ -> failwith "datapath bench: warm wire undecodable"
  in
  ignore header;
  let flow_key =
    match
      Fbsr_fbs.Cache.peek (Fbsr_fbs.Engine.tfkc es)
        (Key.make ~local:p.Fixture.src ~sfl ~peer:p.Fixture.dst)
    with
    | Some e -> Fbsr_fbs.Engine.flow_entry_key e
    | None -> failwith "datapath bench: flow key not in the sender's TFKC"
  in
  let gr0 = allocated_bytes_exact () in
  for _ = 1 to n do
    let wire =
      Fbsr_oracles.Reference.seal ~suite ~flow_key ~sfl ~secret:true
        ~confounder ~timestamp ~payload ()
    in
    match Fbsr_oracles.Reference.open_ ~suite ~flow_key ~wire () with
    | Ok _ -> ()
    | Error _ -> failwith "datapath bench: reference open rejected own wire"
  done;
  let gr1 = allocated_bytes_exact () in
  let per x = x /. float_of_int n in
  Fbsr_util.Json.Obj
    [
      ("payload_bytes", Fbsr_util.Json.Int (String.length payload));
      ("datagrams", Fbsr_util.Json.Int n);
      ("gc_bytes_per_datagram", Fbsr_util.Json.Float (per (g1 -. g0)));
      ("gc_bytes_per_datagram_reference", Fbsr_util.Json.Float (per (gr1 -. gr0)));
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
   monotonic clock (nanosecond resolution), so p50/p99 measure real
   per-stage CPU cost — the per-stage decomposition of the paper's
   Section 7.2 numbers. *)
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

(* [sections] is [None] under [--only]: the artifact then leaves out the
   sharded, telemetry and transfer objects it did not measure. *)
let emit_json ~path ~spans_path ~rev ~quick ~sections rows =
  let m = Fbsr_util.Metrics.create () in
  (* Causal tracing is ON for this run: the datapath allocation audit below
     uses separate untraced engines, so its GC columns still measure the
     disabled-tracing path. *)
  let r =
    Fbsr_experiments.Faults.run ~seed:11 ~messages:50
      ~faults:Fbsr_experiments.Faults.lossy ~metrics:m ~span_capacity:16384
      ~span_cost_clock:monotonic_seconds ()
  in
  (* Per-shard probes from the sharded throughput fixture: counter
     values are deterministic (fixed batch x fixed iterations), so they
     diff cleanly run-over-run like the engine counters. *)
  Option.iter (fun (sharded, _) -> sharded.sregister m) sections;
  let doc =
    Fbsr_util.Json.Obj
      ([
         ("schema", Fbsr_util.Json.String "fbsr-bench/1");
         ("rev", Fbsr_util.Json.String rev);
         ("ocaml_version", Fbsr_util.Json.String Sys.ocaml_version);
         ("quick", Fbsr_util.Json.Bool quick);
         ( "benchmarks",
           Fbsr_util.Json.Obj
             (List.map (fun (name, ns) -> (name, Fbsr_util.Json.Float ns)) rows) );
         ("ns_per_byte", ns_per_byte_json rows);
         ("counters", counters_json m);
         ("datapath", datapath_json ());
         ("stages", stages_json r.Fbsr_experiments.Faults.spans);
       ]
      @
      match sections with
      | None -> []
      | Some (sharded, telemetry) ->
          [
            ("sharded", sharded.sjson);
            ("telemetry", telemetry);
            ("transfers", transfers_json ());
          ])
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
  let only = ref None in
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
    | "--only" :: prefix :: rest ->
        only := Some prefix;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: %s [--json PATH] [--spans PATH] [--quick] [--rev STR] [--only PREFIX]\n\
           (unknown argument %S)\n"
          Sys.executable_name arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let tests =
    match selected_tests !only with
    | Some tests -> tests
    | None ->
        Printf.eprintf "no benchmark row starts with %S\n" (Option.get !only);
        exit 2
  in
  Printf.printf
    "=== Bechamel micro-benchmarks (one per table/figure dependency) ===\n%!";
  let rows = result_rows (benchmark ~quick:!quick tests) in
  (* [--only] runs the matching rows and nothing else: no sharded,
     telemetry or transfer section, no figure harness. *)
  let sections =
    match !only with
    | Some _ -> None
    | None ->
        let sharded = sharded_bench () in
        Some (sharded, telemetry_bench ())
  in
  let rows =
    match sections with
    | None -> rows
    | Some (sharded, (tel_row, _)) -> rows @ sharded.srows @ [ tel_row ]
  in
  print_results rows;
  let sections = Option.map (fun (sharded, (_, tel_json)) -> (sharded, tel_json)) sections in
  match (!json, sections) with
  | Some path, _ ->
      (* Artifact mode: medians + a deterministic counter run; skip the
         long figure harness. *)
      let rev = match !rev with Some r -> r | None -> detect_rev () in
      emit_json ~path ~spans_path:!spans ~rev ~quick:!quick ~sections rows
  | None, None -> ()
  | None, Some _ ->
      (* Part 2: regenerate the paper's tables and figures. *)
      let seed = 7 and duration = 7200.0 and bytes = 1_000_000 in
      Fbsr_experiments.Experiments.run_all seed duration bytes
