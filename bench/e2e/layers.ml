(* Per-layer numbers derived from the boundary timings of a traced run.
   Timed numbers come from the traced blocks, GC numbers and the
   end-to-end tail from the untraced ones; see Phase. *)

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let of_phase (p : Phase.t) =
  let tb = Phase.traced_blocks p and ub = Phase.untraced_blocks p in
  let delta (b : Probe.boundary) = Phase.boundary_delta p tb b.id in
  let ops = Phase.ops_over p tb and wall = Phase.wall_ns_over p tb in
  let self_per_call b =
    let calls, self = delta b in
    per self calls
  in
  let self_per_op b = per (snd (delta b)) ops in
  let busy = List.fold_left (fun acc b -> acc + snd (delta b)) 0 !Probe.boundaries in
  let rx_hist = Probe.Hist.merge [ Probe.rx_src.hist; Probe.rx_dst.hist ] in
  (* The key server is timed whenever tracing is on, set-up included:
     first-contact key fetches happen during warm-up. *)
  let ca_per_fetch = per Probe.ca.self_ns Probe.ca.calls in
  (* Estimated as the end-to-end metrics are. *)
  let estimate name bs =
    if bs = [] then 0.0
    else List.assoc name (Phase.estimate (Phase.groups (List.map (Phase.block p) bs)))
  in
  (* Traced against untraced ops per second. *)
  let overhead =
    if tb = [] || ub = [] then 0.0
    else 100.0 *. ((estimate "ops_per_s" ub /. estimate "ops_per_s" tb) -. 1.0)
  in
  [
    (* The end-to-end latency tail, from the untraced blocks. *)
    ("e2e.lat_p99_us", estimate "lat_p99_us" ub);
    ("tx.ns_per_op", self_per_call Probe.tx);
    ("tx.p99_ns", float_of_int (Probe.Hist.quantile Probe.tx.hist 0.99));
    ("rx.src.ns_per_frame", self_per_call Probe.rx_src);
    ("rx.dst.ns_per_frame", self_per_call Probe.rx_dst);
    ("rx.p99_ns", float_of_int (Probe.Hist.quantile rx_hist 0.99));
    ("rx.frames", float_of_int (fst (delta Probe.rx_src) + fst (delta Probe.rx_dst)));
    ("ca.ns_per_fetch", ca_per_fetch);
    ("app.ns_per_op", self_per_op Probe.app);
    ("loop.ns_per_op", per (wall - busy) ops);
    ("sharded.send_all_ns_per_dgram", self_per_op Probe.send_all);
    ("sharded.receive_all_ns_per_dgram", self_per_op Probe.receive_all);
    ("zipf.draw_ns_per_dgram", self_per_op Probe.draw);
    ("trace.overhead_pct", overhead);
    ("trace.unattributed_pct", if wall = 0 then 0.0 else 100.0 *. (1.0 -. per busy wall));
  ]
  @ Phase.gc_per_op p
