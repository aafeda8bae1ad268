(* sharded-gw: an engine-level gateway with no simulated network.  A
   two-shard sender and receiver ([Fixture.sharded_pair ~nshards:2]) over
   a Zipf(1.0) population of 100k flows, 512-byte datagrams in batches of
   256: each batch goes through [Sharded.send_all], then
   [Sharded.receive_all].  This exercises dispatch, the per-call domain
   fan-out and the batched receive drain, and uses 2 domains — one per
   core of the reference machine.  An op is one datagram; a datagram's
   latency is its batch's submit-to-results time. *)

module Sharded = Fbsr_fbs.Sharded
module Fixture = Fbsr_experiments.Fixture

let flows = 100_000
let batch = 256
let size = 512
let warm_batches = 100
let payloads = 17 (* distinct seeded payloads, prime to the batch size *)

(* Batches per wall second of measurement on a 2-core x86-64 machine. *)
let rate = 115.0

let sizes ~seconds ~scale =
  let batches n = max Phase.nblocks (int_of_float n) * batch in
  ( batches (float_of_int warm_batches *. scale),
    batches (rate *. seconds *. scale) / Phase.nblocks * Phase.nblocks )

let create ~seed ~traced:_ (p : Phase.t) =
  let rng = Fbsr_util.Rng.create seed in
  (* The fixture's default keys, as every run's site is the same; see
     Common.testbed. *)
  let pair = Fixture.sharded_pair ~nshards:2 () in
  let bodies = Array.init payloads (fun _ -> Fbsr_util.Rng.bytes rng size) in
  let wl =
    Fbsr_traffic.Zipf_workload.create ~seed:(Fbsr_util.Rng.bits rng) ~flows
      ~payload:bodies.(0) ~src:pair.Fixture.sh_src ~dst:pair.Fixture.sh_dst ()
  in
  let offered = ref 0 and ok = ref 0 and bad = ref 0 in
  let step () =
    let first = !offered in
    let jobs =
      Probe.call Probe.draw
        (fun () ->
          Array.mapi
            (fun j (attrs, _) -> (attrs, bodies.((first + j) mod payloads)))
            (Fbsr_traffic.Zipf_workload.batch wl batch))
        ()
    in
    offered := first + batch;
    let now = 60.0 +. (float_of_int (first / batch) *. 0.001) in
    Probe.report_op ((first / batch) + 1);
    let t0 = Probe.now_ns () in
    let sealed =
      Probe.call Probe.send_all (Sharded.send_all pair.Fixture.tx ~now ~secret:true) jobs
    in
    let wires = Array.map (function Ok w -> w | Error _ -> "") sealed in
    let opened =
      Probe.call Probe.receive_all
        (Sharded.receive_all pair.Fixture.rx ~now ~src:pair.Fixture.sh_src)
        wires
    in
    let lat = Probe.now_ns () - t0 in
    let good =
      Probe.call Probe.app
        (fun () ->
          let n = ref 0 in
          Array.iteri
            (fun j r ->
              match (sealed.(j), r) with
              | Ok _, Ok acc when String.equal acc.Fbsr_fbs.Engine.payload (snd jobs.(j)) -> incr n
              | _ -> incr bad)
            opened;
          !n)
        ()
    in
    ok := !ok + good;
    Phase.complete p ~ops:batch ~bytes:(good * size) ~lat_ns:lat ~sim_lat_s:0.0
  in
  let registry = Fbsr_util.Metrics.create () in
  Sharded.register_metrics pair.Fixture.tx registry;
  Sharded.register_metrics pair.Fixture.rx registry;
  let shard_sends () =
    Array.map
      (fun e -> (Fbsr_fbs.Engine.counters e).Fbsr_fbs.Engine.sends)
      (Sharded.engines pair.Fixture.tx)
  in
  {
    Run.warm_up = (fun () -> while not (Phase.warm_done p) do step () done);
    measure = (fun () -> while not (Phase.finished p) do step () done);
    verify =
      (fun () ->
        {
          Run.attempted = !offered;
          delivered = !ok;
          counted = !bad;
          violations =
            (if !bad > 0 then
               [ Printf.sprintf "%d datagrams failed or came back different" !bad ]
             else [])
            @
            if Sharded.nshards pair.Fixture.tx <> 2 then
              [ Printf.sprintf "ran on %d shards, not 2" (Sharded.nshards pair.Fixture.tx) ]
            else [];
        });
    layers =
      (fun () ->
        let sends = shard_sends () in
        let mean =
          float_of_int (Array.fold_left ( + ) 0 sends) /. float_of_int (Array.length sends)
        in
        let max_ = float_of_int (Array.fold_left max 0 sends) in
        Common.fbs_layers registry
        @ [
            ("sharded.imbalance", if mean = 0.0 then 0.0 else max_ /. mean);
            ( "sharded.batch_p99_us",
              Phase.percentile (Array.sub p.Phase.lat_ns 0 p.Phase.samples) 0.99 /. 1e3 );
          ]);
    counters =
      (fun () ->
        Common.registry_counters registry
        @ Array.to_list
            (Array.mapi (fun i n -> (Printf.sprintf "sharded.shard%d.sends" i, n)) (shard_sends ()))
        @ [ ("zipf.touched_flows", Fbsr_traffic.Zipf_workload.touched wl) ]);
  }

let workload = { Run.name = "sharded-gw"; sizes; create }
