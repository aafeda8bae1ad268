(* Shard invariants for the domain-sharded datapath: the differential
   suite (sharded ≡ single-shard, byte for byte), shard-locality of
   replay state, per-shard metrics summing to the aggregate view, and
   the Domain_shim/Zipf substrate underneath. *)

open Fbsr_experiments

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let mk_jobs ?(payload_of = fun _ -> String.make 200 'p') p wl_seed n_flows n =
  (* A deterministic Zipf stream over [n_flows] flows, [n] datagrams. *)
  let wl =
    Fbsr_traffic.Zipf_workload.create ~seed:wl_seed ~flows:n_flows
      ~src:p.Fixture.sh_src ~dst:p.Fixture.sh_dst ()
  in
  Array.mapi
    (fun i (attrs, _) -> (attrs, payload_of i))
    (Fbsr_traffic.Zipf_workload.batch wl n)

(* --- Domain_shim --- *)

let test_parallel_run_order () =
  let thunks = Array.init 9 (fun i () -> i * i) in
  check (Alcotest.array Alcotest.int) "results in thunk order"
    (Array.init 9 (fun i -> i * i))
    (Fbsr_util.Domain_shim.parallel_run thunks)

exception Boom of int

let test_parallel_run_exception () =
  let ran = Array.make 4 false in
  let thunks =
    Array.init 4 (fun i () ->
        ran.(i) <- true;
        if i = 2 then raise (Boom i))
  in
  (match Fbsr_util.Domain_shim.parallel_run thunks with
  | (_ : unit array) -> Alcotest.fail "expected Boom"
  | exception Boom 2 -> ());
  check Alcotest.(array bool) "every thunk still ran" [| true; true; true; true |]
    ran

(* --- Zipf sampler --- *)

let test_zipf_deterministic () =
  let draw seed =
    let z = Fbsr_traffic.Zipf.create ~n:1000 (Fbsr_util.Rng.create seed) in
    Array.init 200 (fun _ -> Fbsr_traffic.Zipf.sample z)
  in
  check (Alcotest.array Alcotest.int) "same seed, same draws" (draw 5) (draw 5)

let test_zipf_shape () =
  let z = Fbsr_traffic.Zipf.create ~n:5000 (Fbsr_util.Rng.create 3) in
  let counts = Array.make 5000 0 in
  for _ = 1 to 50_000 do
    let r = Fbsr_traffic.Zipf.sample z in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 5000);
    counts.(r) <- counts.(r) + 1
  done;
  let max_rank = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!max_rank) then max_rank := i) counts;
  check Alcotest.int "rank 0 is the mode" 0 !max_rank;
  (* CDF sanity: total probability mass is 1. *)
  let total = ref 0.0 in
  for i = 0 to 4999 do
    total := !total +. Fbsr_traffic.Zipf.mass z i
  done;
  Alcotest.(check bool) "mass sums to 1" true (abs_float (!total -. 1.0) < 1e-9)

let prop_zipf_in_range =
  QCheck.Test.make ~count:50 ~name:"zipf samples stay in [0, n)"
    QCheck.(pair (int_range 1 64) small_int)
    (fun (n, seed) ->
      let z = Fbsr_traffic.Zipf.create ~n (Fbsr_util.Rng.create seed) in
      let ok = ref true in
      for _ = 1 to 100 do
        let r = Fbsr_traffic.Zipf.sample z in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

(* --- Differential: sharded ≡ single-shard, byte for byte --- *)

let send_through nshards jobs =
  let p = Fixture.sharded_pair ~seed:99 ~nshards () in
  (p, Fbsr_fbs.Sharded.send_all p.Fixture.tx ~now:60.0 ~secret:true jobs)

let wire_of = function
  | Ok w -> w
  | Error e -> Alcotest.failf "send failed: %a" Fbsr_fbs.Engine.pp_error e

let test_sharded_equals_single () =
  let p1 = Fixture.sharded_pair ~seed:99 ~nshards:1 () in
  let jobs = mk_jobs p1 1234 500 2000 in
  let _, r1 = send_through 1 jobs in
  let _, r4 = send_through 4 jobs in
  check Alcotest.int "same result count" (Array.length r1) (Array.length r4);
  Array.iteri
    (fun i w1 ->
      let w1 = wire_of w1 and w4 = wire_of r4.(i) in
      if not (String.equal w1 w4) then
        Alcotest.failf "datagram %d differs between 1 and 4 shards" i)
    r1

let test_sharded_roundtrip_and_order () =
  (* Per-flow ordering: each payload embeds its global sequence number;
     after the sharded round trip, the datagrams of any one flow must
     come back with strictly increasing sequence numbers (flow = sfl =
     shard, so order within a shard bucket is order within the flow). *)
  let p = Fixture.sharded_pair ~seed:42 ~nshards:4 () in
  let jobs = mk_jobs ~payload_of:(Printf.sprintf "seq=%06d") p 77 64 1500 in
  let wires =
    Array.map wire_of (Fbsr_fbs.Sharded.send_all p.Fixture.tx ~now:60.0 ~secret:true jobs)
  in
  let accepted =
    Fbsr_fbs.Sharded.receive_all p.Fixture.rx ~now:60.0 ~src:p.Fixture.sh_src
      wires
  in
  let last_seq = Hashtbl.create 64 in
  Array.iteri
    (fun i -> function
      | Error e -> Alcotest.failf "receive %d failed: %a" i Fbsr_fbs.Engine.pp_error e
      | Ok (a : Fbsr_fbs.Engine.accepted) ->
          check Alcotest.string "payload round-trips" (snd jobs.(i))
            a.Fbsr_fbs.Engine.payload;
          let flow = (fst jobs.(i)).Fbsr_fbs.Fam.src_port in
          let seq = int_of_string (String.sub a.Fbsr_fbs.Engine.payload 4 6) in
          (match Hashtbl.find_opt last_seq flow with
          | Some prev when prev >= seq ->
              Alcotest.failf "flow %d: seq %d after %d" flow seq prev
          | _ -> ());
          Hashtbl.replace last_seq flow seq)
    accepted

(* --- Replay windows never cross shards --- *)

let test_replay_stays_on_shard () =
  let p = Fixture.sharded_pair ~seed:7 ~nshards:4 ~strict_replay:true () in
  let jobs = mk_jobs p 11 32 256 in
  let wires =
    Array.map wire_of (Fbsr_fbs.Sharded.send_all p.Fixture.tx ~now:60.0 ~secret:true jobs)
  in
  let ok r = Array.for_all (function Ok _ -> true | Error _ -> false) r in
  Alcotest.(check bool) "first delivery accepted" true
    (ok (Fbsr_fbs.Sharded.receive_all p.Fixture.rx ~now:60.0 ~src:p.Fixture.sh_src wires));
  (* Redeliver one datagram: only its owning shard may see (and count)
     the duplicate. *)
  let dup = wires.(5) in
  let owner =
    Fbsr_fbs.Sharded.shard_of_sfl p.Fixture.rx
      (Fbsr_fbs.Sfl.of_int64 (String.get_int64_be dup 0))
  in
  let before =
    Array.map
      (fun e ->
        Fbsr_fbs.Engine.drop_count (Fbsr_fbs.Engine.counters e)
          Fbsr_fbs.Engine.Duplicate)
      (Fbsr_fbs.Sharded.engines p.Fixture.rx)
  in
  (match
     Fbsr_fbs.Sharded.receive_all p.Fixture.rx ~now:60.0 ~src:p.Fixture.sh_src
       [| dup |]
   with
  | [| Error Fbsr_fbs.Engine.Duplicate |] -> ()
  | _ -> Alcotest.fail "duplicate not rejected");
  Array.iteri
    (fun i e ->
      let d =
        Fbsr_fbs.Engine.drop_count (Fbsr_fbs.Engine.counters e)
          Fbsr_fbs.Engine.Duplicate
      in
      check Alcotest.int
        (Printf.sprintf "shard %d duplicate counter" i)
        (if i = owner then before.(i) + 1 else before.(i))
        d)
    (Fbsr_fbs.Sharded.engines p.Fixture.rx)

(* --- Per-shard metrics sum to the aggregate --- *)

let test_metrics_sum () =
  let p = Fixture.sharded_pair ~seed:13 ~nshards:4 () in
  let jobs = mk_jobs p 21 128 1024 in
  let wires =
    Array.map wire_of (Fbsr_fbs.Sharded.send_all p.Fixture.tx ~now:60.0 ~secret:true jobs)
  in
  ignore
    (Fbsr_fbs.Sharded.receive_all p.Fixture.rx ~now:60.0 ~src:p.Fixture.sh_src
       wires
      : (Fbsr_fbs.Engine.accepted, Fbsr_fbs.Engine.error) result array);
  let m = Fbsr_util.Metrics.create () in
  Fbsr_fbs.Sharded.register_metrics p.Fixture.tx m;
  let n = Fbsr_fbs.Sharded.nshards p.Fixture.tx in
  List.iter
    (fun probe ->
      let shard_sum = ref 0 in
      for i = 0 to n - 1 do
        shard_sum :=
          !shard_sum
          + Fbsr_util.Metrics.get m (Printf.sprintf "shard.%d.%s" i probe)
      done;
      check Alcotest.int (probe ^ " sums across shards")
        (Fbsr_util.Metrics.get m probe)
        !shard_sum)
    [
      "fbs.engine.sends";
      "fbs.cache.tfkc.misses.total";
    ];
  (* And the aggregate agrees with the dispatcher's view. *)
  check Alcotest.int "aggregate sends = offered" (Array.length jobs)
    (Fbsr_util.Metrics.get m "fbs.engine.sends")

(* --- Zipf scenario invariants --- *)

let test_zipf_invariants () =
  let r =
    Zipf_scenario.run ~flows:5_000 ~datagrams:4_000 ~batch:512 ~nshards:2
      ~fst_bits:13 ()
  in
  List.iter (fun m -> Printf.printf "scenario failure: %s\n" m) r.Zipf_scenario.failures;
  Alcotest.(check bool) "scenario invariants hold" true r.Zipf_scenario.ok

(* --- Telemetry plane: heavy-hitter attribution is shard-invariant --- *)

(* The merged wire-traffic sketches must not depend on how the datapath
   was sharded: CM cells sum exactly, Space-Saving candidates recombine
   by summed counts, and the top list is re-read from the merged CM with
   a deterministic tie-break.  Byte equality of the per-quantity JSON
   documents is the strongest observable form of that invariant — the
   same comparison the paper-scale CI lane makes between a 4-shard run
   and its single-shard control.  The [degraded] sketch is deliberately
   excluded: it counts soft-state flow-key recoveries, and a 4-shard
   site genuinely has 4× the flow-key-cache capacity of a single engine,
   so its recovery workload differs — that quantity attributes engine
   behaviour, not wire traffic. *)
let test_flowstats_shard_invariant () =
  let run nshards =
    Zipf_scenario.run ~flows:20_000 ~datagrams:30_000 ~batch:1024 ~nshards
      ~seed:77 ~fst_bits:15 ~telemetry:true ()
  in
  let r1 = run 1 in
  let r4 = run 4 in
  Alcotest.(check bool) "single-shard run ok" true r1.Zipf_scenario.ok;
  Alcotest.(check bool) "four-shard run ok" true r4.Zipf_scenario.ok;
  let doc sk = Fbsr_util.Json.to_string (Fbsr_util.Sketch.to_json sk) in
  let fs (r : Zipf_scenario.result) = r.Zipf_scenario.flowstats in
  check Alcotest.string "datagram sketch JSON is shard-invariant"
    (doc (fs r1).Fbsr_fbs.Flowstats.datagrams)
    (doc (fs r4).Fbsr_fbs.Flowstats.datagrams);
  check Alcotest.string "byte sketch JSON is shard-invariant"
    (doc (fs r1).Fbsr_fbs.Flowstats.bytes)
    (doc (fs r4).Fbsr_fbs.Flowstats.bytes);
  check Alcotest.string "drop sketch JSON is shard-invariant"
    (doc (fs r1).Fbsr_fbs.Flowstats.drops)
    (doc (fs r4).Fbsr_fbs.Flowstats.drops);
  (* Sanity on the merged content: every sealed datagram was observed by
     exactly one sender shard, and the stream is heavy-tailed enough that
     the top flow dominates. *)
  let dg = (fs r1).Fbsr_fbs.Flowstats.datagrams in
  check Alcotest.int "datagram sketch total = datagrams sent"
    r1.Zipf_scenario.datagrams
    (Fbsr_util.Sketch.total dg);
  match Fbsr_util.Sketch.top dg 1 with
  | [ (_, est) ] ->
      Alcotest.(check bool) "top flow estimate is heavy" true (est > 1_000)
  | _ -> Alcotest.fail "expected a non-empty top list"

let () =
  Alcotest.run "sharded"
    [
      ( "domain-shim",
        [
          Alcotest.test_case "parallel_run preserves order" `Quick
            test_parallel_run_order;
          Alcotest.test_case "parallel_run joins before raising" `Quick
            test_parallel_run_exception;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_zipf_deterministic;
          Alcotest.test_case "rank 0 is the mode" `Quick test_zipf_shape;
          qtest prop_zipf_in_range;
        ] );
      ( "sharded-engine",
        [
          Alcotest.test_case "sharded = single-shard, byte for byte" `Quick
            test_sharded_equals_single;
          Alcotest.test_case "round trip preserves per-flow order" `Quick
            test_sharded_roundtrip_and_order;
          Alcotest.test_case "replay windows never cross shards" `Quick
            test_replay_stays_on_shard;
          Alcotest.test_case "per-shard metrics sum to aggregate" `Quick
            test_metrics_sum;
          Alcotest.test_case "zipf invariants hold per shard" `Quick
            test_zipf_invariants;
          Alcotest.test_case "flowstats JSON is shard-invariant" `Quick
            test_flowstats_shard_invariant;
        ] );
    ]
