(* Million-flow Zipf scenario over the sharded engines.  See
   zipf_scenario.mli. *)

module J = Fbsr_util.Json

type shard_row = { shard : int; datagrams : int }

type result = {
  flows : int;
  datagrams : int;
  nshards : int;
  touched_flows : int;
  flows_started : int;
  elapsed_s : float;
  datagrams_per_sec : float;
  flow_key_computations : int;
  keysched_hits : int;
  keysched_misses : int;
  rows : shard_row list;
  failures : string list;
  ok : bool;
  timeseries : Fbsr_util.Timeseries.t;
  health : Fbsr_fbs.Health.t;
  flowstats : Fbsr_fbs.Flowstats.t;
}

(* One side's engine counters, summed over its shards: a registry holding
   only that dispatcher (the other side's engines would add their own
   flow-key computations and cache traffic). *)
let side_counters side =
  let m = Fbsr_util.Metrics.create () in
  Fbsr_fbs.Sharded.register_metrics side m;
  m

let tx_counters (p : Fixture.sharded) = side_counters p.Fixture.tx
let rx_counters (p : Fixture.sharded) = side_counters p.Fixture.rx

(* A flow-key cache's [(accesses, misses)] totals from a side registry. *)
let cache_totals m cache =
  let misses = Fbsr_util.Metrics.get m ("fbs.cache." ^ cache ^ ".misses.total") in
  (Fbsr_util.Metrics.get m ("fbs.cache." ^ cache ^ ".hits") + misses, misses)

(* Round-trip [datagrams] Zipf datagrams through a sharded pair in
   batches.  The simulated clock advances ~10 ms per batch: far inside
   the replay window over the whole run, far enough to exercise
   timestamping. *)
let drive p wl ~datagrams ~batch fail =
  let sent = ref 0 in
  let round = ref 0 in
  while !sent < datagrams do
    let k = min batch (datagrams - !sent) in
    let now = 60.0 +. (0.01 *. Float.of_int !round) in
    incr round;
    let jobs = Fbsr_traffic.Zipf_workload.batch wl k in
    let wires = Fbsr_fbs.Sharded.send_all p.Fixture.tx ~now ~secret:true jobs in
    let ok_wires =
      Array.map
        (function
          | Ok w -> w
          | Error e ->
              fail (Fmt.str "send failed: %a" Fbsr_fbs.Engine.pp_error e);
              "")
        wires
    in
    let received =
      Fbsr_fbs.Sharded.receive_all p.Fixture.rx ~now ~src:p.Fixture.sh_src
        ok_wires
    in
    Array.iter
      (function
        | Ok (_ : Fbsr_fbs.Engine.accepted) -> ()
        | Error e ->
            fail (Fmt.str "receive failed: %a" Fbsr_fbs.Engine.pp_error e))
      received;
    sent := !sent + k
  done

let run ?(flows = 1_000_000) ?(datagrams = 1_000_000) ?(batch = 4096)
    ?nshards ?(seed = 20260808) ?(fst_bits = 19) ?(telemetry = false) () =
  let flowstats =
    if telemetry then fun (_ : int) -> Fbsr_fbs.Flowstats.create ()
    else fun _ -> Fbsr_fbs.Flowstats.none
  in
  let p = Fixture.sharded_pair ~seed ?nshards ~fst_bits ~flowstats () in
  (* Telemetry plane: both sides' engines register on one registry (root
     aggregate + shard.<i> twins), the flight recorder snapshots it on
     the batch clock via the dispatcher tick hook, and the health rules
     run right after each snapshot. *)
  let ts, health =
    if not telemetry then (Fbsr_util.Timeseries.none, Fbsr_fbs.Health.none)
    else begin
      let m = Fbsr_util.Metrics.create () in
      Fbsr_fbs.Sharded.register_metrics p.Fixture.tx m;
      Fbsr_fbs.Sharded.register_metrics p.Fixture.rx m;
      Fbsr_fbs.Fam.register_metrics
        (Fbsr_fbs.Sharded.fam p.Fixture.tx)
        (Fbsr_util.Metrics.sub m "fbs.fam");
      let ts =
        Fbsr_util.Timeseries.create ~capacity:1024 ~cadence:0.05 ~host:"zipf"
          ~metrics:m ()
      in
      let health = Fbsr_fbs.Health.create ~ts () in
      Fbsr_fbs.Sharded.set_tick_hook p.Fixture.tx (fun ~now ->
          Fbsr_util.Timeseries.tick ts ~now;
          Fbsr_fbs.Health.check health ~now);
      (ts, health)
    end
  in
  let wl =
    Fbsr_traffic.Zipf_workload.create ~seed:(seed lxor 0xf10c) ~flows
      ~src:p.Fixture.sh_src ~dst:p.Fixture.sh_dst ()
  in
  let n = Fbsr_fbs.Sharded.nshards p.Fixture.tx in
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let t0 = Unix.gettimeofday () in
  drive p wl ~datagrams ~batch (fun m -> failf "%s" m);
  let elapsed = Unix.gettimeofday () -. t0 in
  if telemetry then begin
    let now = 60.0 +. (0.01 *. Float.of_int ((datagrams + batch - 1) / batch)) in
    Fbsr_util.Timeseries.force ts ~now;
    Fbsr_fbs.Health.check health ~now
  end;
  (* Per-shard delivery audit: the receiver shard of the same index
     (shard choice is a pure function of the sfl and both sides run the
     same count) accepts every datagram its sender shard sealed. *)
  let rows =
    List.init n (fun i ->
        let txc = Fbsr_fbs.Engine.counters (Fbsr_fbs.Sharded.engine p.Fixture.tx i) in
        let rxc = Fbsr_fbs.Engine.counters (Fbsr_fbs.Sharded.engine p.Fixture.rx i) in
        let d = txc.Fbsr_fbs.Engine.sends in
        if rxc.Fbsr_fbs.Engine.accepted <> d then
          failf "shard %d: %d sealed but %d accepted" i d
            rxc.Fbsr_fbs.Engine.accepted;
        { shard = i; datagrams = d })
  in
  let tx = tx_counters p in
  let sends = Fbsr_util.Metrics.get tx "fbs.engine.sends" in
  if sends <> datagrams then failf "aggregate sends %d <> offered %d" sends datagrams;
  let fam_stats = Fbsr_fbs.Fam.stats (Fbsr_fbs.Sharded.fam p.Fixture.tx) in
  {
    flows;
    datagrams;
    nshards = n;
    touched_flows = Fbsr_traffic.Zipf_workload.touched wl;
    flows_started = fam_stats.Fbsr_fbs.Fam.flows_started;
    elapsed_s = elapsed;
    datagrams_per_sec =
      (if elapsed > 0.0 then Float.of_int datagrams /. elapsed else 0.0);
    flow_key_computations = Fbsr_util.Metrics.get tx "fbs.engine.flow_key_computations";
    keysched_hits = Fbsr_util.Metrics.get tx "fbs.engine.keysched.hits";
    keysched_misses = Fbsr_util.Metrics.get tx "fbs.engine.keysched.misses";
    rows;
    failures = List.rev !failures;
    ok = !failures = [];
    timeseries = ts;
    health;
    flowstats =
      (if telemetry then
         Fbsr_fbs.Flowstats.merge
           [
             Fbsr_fbs.Sharded.flowstats p.Fixture.tx;
             Fbsr_fbs.Sharded.flowstats p.Fixture.rx;
           ]
       else Fbsr_fbs.Flowstats.none);
  }

let json_fields r =
  [
    ("schema", J.String "fbsr-zipf/1");
      ("flows", J.Int r.flows);
      ("datagrams", J.Int r.datagrams);
      ("nshards", J.Int r.nshards);
      ("touched_flows", J.Int r.touched_flows);
      ("flows_started", J.Int r.flows_started);
      ("elapsed_s", J.Float r.elapsed_s);
      ("datagrams_per_sec", J.Float r.datagrams_per_sec);
      ("flow_key_computations", J.Int r.flow_key_computations);
      ("keysched_hits", J.Int r.keysched_hits);
      ("keysched_misses", J.Int r.keysched_misses);
      ( "shards",
        J.List
          (List.map
             (fun row ->
               J.Obj
                 [
                   ("shard", J.Int row.shard);
                   ("datagrams", J.Int row.datagrams);
                 ])
             r.rows) );
      ("failures", J.List (List.map (fun m -> J.String m) r.failures));
      ("ok", J.Bool r.ok);
    ]
    @
    if Fbsr_util.Timeseries.enabled r.timeseries then
      [
        ( "telemetry",
          J.Obj
            [
              ("timeseries", Fbsr_util.Timeseries.to_json r.timeseries);
              ("health", Fbsr_fbs.Health.to_json r.health);
              ("flowstats", Fbsr_fbs.Flowstats.to_json r.flowstats);
            ] );
      ]
    else []

let to_json r = J.Obj (json_fields r)

let report ?flows ?datagrams ?batch ?nshards ?seed ?fst_bits ?telemetry ?json
    () =
  let r = run ?flows ?datagrams ?batch ?nshards ?seed ?fst_bits ?telemetry () in
  Fmt.pr "=== million-flow Zipf over the sharded engine ===@.";
  Fmt.pr "flows %d (touched %d, started %d)  datagrams %d  shards %d@."
    r.flows r.touched_flows r.flows_started r.datagrams r.nshards;
  Fmt.pr "%.2f s  %.0f datagrams/s  flow keys %d  keysched %d hit / %d miss@."
    r.elapsed_s r.datagrams_per_sec r.flow_key_computations r.keysched_hits
    r.keysched_misses;
  List.iter
    (fun row ->
      Fmt.pr "  shard %d: %8d datagrams@." row.shard row.datagrams)
    r.rows;
  List.iter (fun m -> Fmt.pr "  FAIL: %s@." m) r.failures;
  if Fbsr_util.Timeseries.enabled r.timeseries then begin
    Fmt.pr "telemetry: %d snapshots, %d columns@."
      (Fbsr_util.Timeseries.taken r.timeseries)
      (List.length (Fbsr_util.Timeseries.names r.timeseries));
    if Fbsr_fbs.Flowstats.enabled r.flowstats then begin
      Fmt.pr "top flows by datagrams (Space-Saving + count-min):@.";
      List.iter
        (fun (key, est) -> Fmt.pr "  sfl %016Lx  ~%d datagrams@." key est)
        (Fbsr_util.Sketch.top r.flowstats.Fbsr_fbs.Flowstats.datagrams 8)
    end;
    Format.printf "@[<v>%a@]@." Fbsr_fbs.Health.report r.health
  end;
  Fmt.pr "%s@." (if r.ok then "zipf scenario: OK" else "zipf scenario: FAILED");
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string_pretty (to_json r));
      output_string oc "\n";
      close_out oc;
      Fmt.pr "wrote %s@." path);
  r

(* ------------------------------------------------------------------ *)
(* Section 7.3 miss-rate curve (fig11-14 analogue) at million-flow     *)
(* scale: a fresh sharded pair per point, so each point's caches start *)
(* cold and the curve is active flows vs steady-state miss rate.       *)
(* ------------------------------------------------------------------ *)

type curve_row = {
  offered_flows : int;
  active_flows : int;
  tfkc_accesses : int;
  tfkc_miss_rate : float;
  rfkc_accesses : int;
  rfkc_miss_rate : float;
  point_flow_key_computations : int;
}

type curve = {
  points : curve_row list;
  datagrams_per_point : int;
  curve_nshards : int;
  curve_elapsed_s : float;
  curve_failures : string list;
  curve_ok : bool;
}

let default_points =
  [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000 ]

let miss_curve ?(points = default_points) ?(datagrams = 200_000) ?(batch = 4096)
    ?nshards ?(seed = 20260808) ?(fst_bits = 19) () =
  if points = [] then invalid_arg "Zipf_scenario.miss_curve: no points";
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let t0 = Unix.gettimeofday () in
  let nshards_seen = ref 0 in
  let rows =
    List.map
      (fun flows ->
        let p = Fixture.sharded_pair ~seed:(seed + flows) ?nshards ~fst_bits () in
        let wl =
          Fbsr_traffic.Zipf_workload.create ~seed:(seed lxor flows) ~flows
            ~src:p.Fixture.sh_src ~dst:p.Fixture.sh_dst ()
        in
        drive p wl ~datagrams ~batch (fun m -> failf "%s" m);
        nshards_seen := Fbsr_fbs.Sharded.nshards p.Fixture.tx;
        let rate (a, m) =
          if a = 0 then 0.0 else Float.of_int m /. Float.of_int a
        in
        (* Each side's flow-key-cache totals, summed across its shards:
           the aggregate behaves like one cache n times the size, which
           is exactly what the sharded datapath presents to the site. *)
        let tx = tx_counters p in
        let t = cache_totals tx "tfkc" in
        let r = cache_totals (rx_counters p) "rfkc" in
        let sends = Fbsr_util.Metrics.get tx "fbs.engine.sends" in
        if sends <> datagrams then
          failf "point %d: aggregate sends %d <> offered %d" flows sends datagrams;
        {
          offered_flows = flows;
          active_flows = Fbsr_traffic.Zipf_workload.touched wl;
          tfkc_accesses = fst t;
          tfkc_miss_rate = rate t;
          rfkc_accesses = fst r;
          rfkc_miss_rate = rate r;
          point_flow_key_computations =
            Fbsr_util.Metrics.get tx "fbs.engine.flow_key_computations";
        })
      points
  in
  {
    points = rows;
    datagrams_per_point = datagrams;
    curve_nshards = !nshards_seen;
    curve_elapsed_s = Unix.gettimeofday () -. t0;
    curve_failures = List.rev !failures;
    curve_ok = !failures = [];
  }

let curve_to_json c =
  J.Obj
    [
      ("schema", J.String "fbsr-zipf-miss-curve/1");
      ("datagrams_per_point", J.Int c.datagrams_per_point);
      ("nshards", J.Int c.curve_nshards);
      ("elapsed_s", J.Float c.curve_elapsed_s);
      ( "points",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("offered_flows", J.Int p.offered_flows);
                   ("active_flows", J.Int p.active_flows);
                   ("tfkc_accesses", J.Int p.tfkc_accesses);
                   ("tfkc_miss_rate", J.Float p.tfkc_miss_rate);
                   ("rfkc_accesses", J.Int p.rfkc_accesses);
                   ("rfkc_miss_rate", J.Float p.rfkc_miss_rate);
                   ( "flow_key_computations",
                     J.Int p.point_flow_key_computations );
                 ])
             c.points) );
      ("failures", J.List (List.map (fun m -> J.String m) c.curve_failures));
      ("ok", J.Bool c.curve_ok);
    ]

let curve_report ?points ?datagrams ?batch ?nshards ?seed ?fst_bits ?json () =
  let c = miss_curve ?points ?datagrams ?batch ?nshards ?seed ?fst_bits () in
  Fmt.pr "=== active flows vs flow-key-cache miss rate (fig11-14 analogue) ===@.";
  Fmt.pr "%d datagrams/point  %d shards  %.2f s total@." c.datagrams_per_point
    c.curve_nshards c.curve_elapsed_s;
  Fmt.pr "%10s %10s %12s %12s %12s@." "flows" "active" "TFKC miss" "RFKC miss"
    "flow keys";
  List.iter
    (fun p ->
      Fmt.pr "%10d %10d %11.2f%% %11.2f%% %12d@." p.offered_flows
        p.active_flows
        (100.0 *. p.tfkc_miss_rate)
        (100.0 *. p.rfkc_miss_rate)
        p.point_flow_key_computations)
    c.points;
  List.iter (fun m -> Fmt.pr "  FAIL: %s@." m) c.curve_failures;
  Fmt.pr "%s@."
    (if c.curve_ok then "miss-curve sweep: OK" else "miss-curve sweep: FAILED");
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string_pretty (curve_to_json c));
      output_string oc "\n";
      close_out oc;
      Fmt.pr "wrote %s@." path);
  c

(* ------------------------------------------------------------------ *)
(* Sweeper-cadence study (the ROADMAP's open half of the §7.3 item):   *)
(* how often should the FAM sweeper run under Zipf skew?  Each point   *)
(* replays the same skewed workload against a fresh sharded pair with  *)
(* a short idle THRESHOLD, sweeping the dispatcher FST at a different  *)
(* cadence.  Hot flows survive any cadence; the Zipf tail is the       *)
(* contested ground — swept-out tail flows that reappear restart as    *)
(* fresh flows (new sfl, new flow-key derivation), so the curve is     *)
(* occupancy vs restart-and-rekey churn, with the per-tick TFKC miss   *)
(* rate read back from the flight recorder.                            *)
(* ------------------------------------------------------------------ *)

type sweep_row = {
  cadence_s : float;  (* 0.0 = never sweep *)
  sweeps : int;
  expired : int;
  sw_flows_started : int;
  restarts : int;
  active_end : int;
  sw_tfkc_accesses : int;
  sw_tfkc_miss_rate : float;
  sw_flow_keys : int;
  miss_series : (float * float) list;
}

type sweep_study = {
  sweep_points : sweep_row list;
  sw_flows : int;
  sw_datagrams : int;
  sw_threshold : float;
  sw_round_dt : float;
  sw_nshards : int;
  sw_elapsed_s : float;
  sw_failures : string list;
  sw_ok : bool;
}

let default_cadences = [ 0.25; 0.5; 1.0; 2.0; 5.0; 0.0 ]

let sweep_study ?(cadences = default_cadences) ?(flows = 100_000)
    ?(datagrams = 120_000) ?(batch = 1024) ?(round_dt = 0.1)
    ?(threshold = 2.0) ?nshards ?(seed = 20260808) ?(fst_bits = 17) () =
  if cadences = [] then invalid_arg "Zipf_scenario.sweep_study: no cadences";
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let t0 = Unix.gettimeofday () in
  let nshards_seen = ref 0 in
  let points =
    List.map
      (fun cadence ->
        let p =
          Fixture.sharded_pair ~seed ?nshards ~fst_bits
            ~fam_threshold:threshold ()
        in
        (* Same workload seed at every point: the cadence is the only
           thing that varies between rows. *)
        let wl =
          Fbsr_traffic.Zipf_workload.create ~seed:(seed lxor 0x53ee) ~flows
            ~src:p.Fixture.sh_src ~dst:p.Fixture.sh_dst ()
        in
        nshards_seen := Fbsr_fbs.Sharded.nshards p.Fixture.tx;
        let tx = tx_counters p in
        let ts =
          Fbsr_util.Timeseries.create ~capacity:2048 ~cadence:round_dt
            ~host:"sweep-study" ~metrics:tx ()
        in
        let fam = Fbsr_fbs.Sharded.fam p.Fixture.tx in
        let sent = ref 0 and round = ref 0 in
        let next_sweep = ref (60.0 +. cadence) in
        let last_now = ref 60.0 in
        while !sent < datagrams do
          let k = min batch (datagrams - !sent) in
          let now = 60.0 +. (round_dt *. Float.of_int !round) in
          last_now := now;
          incr round;
          let jobs = Fbsr_traffic.Zipf_workload.batch wl k in
          let wires =
            Fbsr_fbs.Sharded.send_all p.Fixture.tx ~now ~secret:true jobs
          in
          let ok_wires =
            Array.map
              (function
                | Ok w -> w
                | Error e ->
                    failf "cadence %.2f: send failed: %s" cadence
                      (Fmt.str "%a" Fbsr_fbs.Engine.pp_error e);
                    "")
              wires
          in
          Array.iter
            (function
              | Ok (_ : Fbsr_fbs.Engine.accepted) -> ()
              | Error e ->
                  failf "cadence %.2f: receive failed: %s" cadence
                    (Fmt.str "%a" Fbsr_fbs.Engine.pp_error e))
            (Fbsr_fbs.Sharded.receive_all p.Fixture.rx ~now
               ~src:p.Fixture.sh_src ok_wires);
          if cadence > 0.0 && now >= !next_sweep then begin
            ignore (Fbsr_fbs.Fam.sweep fam ~now : int);
            while !next_sweep <= now do
              next_sweep := !next_sweep +. cadence
            done
          end;
          Fbsr_util.Timeseries.tick ts ~now;
          sent := !sent + k
        done;
        Fbsr_util.Timeseries.force ts ~now:!last_now;
        (* Interval TFKC miss rate per tick, from the recorded series. *)
        let misses =
          Fbsr_util.Timeseries.series ts "fbs.cache.tfkc.misses.total"
        in
        let hits = Fbsr_util.Timeseries.series ts "fbs.cache.tfkc.hits" in
        let miss_series =
          List.filter_map
            (fun i ->
              let at, m1 = misses.(i) in
              let _, m0 = misses.(i - 1) in
              let _, h1 = hits.(i) in
              let _, h0 = hits.(i - 1) in
              let dm = m1 -. m0 and dh = h1 -. h0 in
              let acc = dm +. dh in
              if acc <= 0.0 then None else Some (at, dm /. acc))
            (List.init (max 0 (Array.length misses - 1)) (fun i -> i + 1))
        in
        let acc_tot, miss_tot = cache_totals tx "tfkc" in
        let fam_stats = Fbsr_fbs.Fam.stats fam in
        let sends = Fbsr_util.Metrics.get tx "fbs.engine.sends" in
        if sends <> datagrams then
          failf "cadence %.2f: aggregate sends %d <> offered %d" cadence sends
            datagrams;
        let touched = Fbsr_traffic.Zipf_workload.touched wl in
        {
          cadence_s = cadence;
          sweeps = fam_stats.Fbsr_fbs.Fam.sweeps;
          expired = fam_stats.Fbsr_fbs.Fam.expired;
          sw_flows_started = fam_stats.Fbsr_fbs.Fam.flows_started;
          restarts = fam_stats.Fbsr_fbs.Fam.flows_started - touched;
          active_end = Fbsr_fbs.Fam.active fam ~now:!last_now;
          sw_tfkc_accesses = acc_tot;
          sw_tfkc_miss_rate =
            (if acc_tot = 0 then 0.0
             else Float.of_int miss_tot /. Float.of_int acc_tot);
          sw_flow_keys = Fbsr_util.Metrics.get tx "fbs.engine.flow_key_computations";
          miss_series;
        })
      cadences
  in
  {
    sweep_points = points;
    sw_flows = flows;
    sw_datagrams = datagrams;
    sw_threshold = threshold;
    sw_round_dt = round_dt;
    sw_nshards = !nshards_seen;
    sw_elapsed_s = Unix.gettimeofday () -. t0;
    sw_failures = List.rev !failures;
    sw_ok = !failures = [];
  }

let sweep_study_to_json s =
  J.Obj
    [
      ("schema", J.String "fbsr-sweep-study/1");
      ("flows", J.Int s.sw_flows);
      ("datagrams", J.Int s.sw_datagrams);
      ("threshold_s", J.Float s.sw_threshold);
      ("round_dt_s", J.Float s.sw_round_dt);
      ("nshards", J.Int s.sw_nshards);
      ("elapsed_s", J.Float s.sw_elapsed_s);
      ( "points",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("cadence_s", J.Float p.cadence_s);
                   ("sweeps", J.Int p.sweeps);
                   ("expired", J.Int p.expired);
                   ("flows_started", J.Int p.sw_flows_started);
                   ("restarts", J.Int p.restarts);
                   ("active_end", J.Int p.active_end);
                   ("tfkc_accesses", J.Int p.sw_tfkc_accesses);
                   ("tfkc_miss_rate", J.Float p.sw_tfkc_miss_rate);
                   ("flow_key_computations", J.Int p.sw_flow_keys);
                   ( "miss_series",
                     J.List
                       (List.map
                          (fun (at, r) -> J.List [ J.Float at; J.Float r ])
                          p.miss_series) );
                 ])
             s.sweep_points) );
      ("failures", J.List (List.map (fun m -> J.String m) s.sw_failures));
      ("ok", J.Bool s.sw_ok);
    ]

let sweep_study_report ?cadences ?flows ?datagrams ?batch ?round_dt ?threshold
    ?nshards ?seed ?fst_bits ?json () =
  let s =
    sweep_study ?cadences ?flows ?datagrams ?batch ?round_dt ?threshold
      ?nshards ?seed ?fst_bits ()
  in
  Fmt.pr "=== sweeper-cadence study under Zipf skew ===@.";
  Fmt.pr
    "%d flows  %d datagrams  idle threshold %.1fs  round dt %.2fs  %d shards  \
     %.2fs total@."
    s.sw_flows s.sw_datagrams s.sw_threshold s.sw_round_dt s.sw_nshards
    s.sw_elapsed_s;
  Fmt.pr "%10s %7s %9s %9s %9s %9s %11s %10s@." "cadence" "sweeps" "expired"
    "started" "restarts" "active" "TFKC miss" "flow keys";
  List.iter
    (fun p ->
      Fmt.pr "%10s %7d %9d %9d %9d %9d %10.2f%% %10d@."
        (if p.cadence_s > 0.0 then Fmt.str "%.2fs" p.cadence_s else "never")
        p.sweeps p.expired p.sw_flows_started p.restarts p.active_end
        (100.0 *. p.sw_tfkc_miss_rate)
        p.sw_flow_keys)
    s.sweep_points;
  List.iter (fun m -> Fmt.pr "  FAIL: %s@." m) s.sw_failures;
  Fmt.pr "%s@."
    (if s.sw_ok then "sweep study: OK" else "sweep study: FAILED");
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string_pretty (sweep_study_to_json s));
      output_string oc "\n";
      close_out oc;
      Fmt.pr "wrote %s@." path);
  s
