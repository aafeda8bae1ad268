(** The million-flow scenario: a Zipf-popularity datagram stream over
    10⁶ concurrent flows, driven in batches through a pair of
    domain-sharded engines ({!Fbsr_fbs.Sharded}), with the paper's
    soft-state invariants checked per shard.

    Every datagram must round-trip (seal on the sender's owning shard,
    verify + decrypt on the receiver's): each receiver shard accepts
    exactly what its sender shard sealed, and the per-shard sends sum to
    the offered count.  [ok = false] on any violation — the CLI wrapper
    turns that into a non-zero exit, which is what the bench-multicore
    CI lane gates on.  Datapath allocation is measured by the GC (the
    bench artifact's [datapath] columns), not here. *)

type shard_row = {
  shard : int;
  datagrams : int;  (** sealed by this sender shard *)
}

type result = {
  flows : int;
  datagrams : int;
  nshards : int;  (** shard count *)
  touched_flows : int;  (** distinct ranks the Zipf stream actually hit *)
  flows_started : int;  (** fresh classifications at the dispatcher FAM *)
  elapsed_s : float;
  datagrams_per_sec : float;
  flow_key_computations : int;
  keysched_hits : int;
  keysched_misses : int;
  rows : shard_row list;
  failures : string list;  (** violated invariants; empty iff [ok] *)
  ok : bool;
  timeseries : Fbsr_util.Timeseries.t;
      (** flight recorder over both sides' registries
          ({!Fbsr_util.Timeseries.none} unless [telemetry]) *)
  health : Fbsr_fbs.Health.t;
      (** rule monitor over [timeseries] ({!Fbsr_fbs.Health.none} unless
          [telemetry]) *)
  flowstats : Fbsr_fbs.Flowstats.t;
      (** heavy-hitter sketches exact-merged across every shard of both
          sides ({!Fbsr_fbs.Flowstats.none} unless [telemetry]) *)
}

val run :
  ?flows:int ->
  ?datagrams:int ->
  ?batch:int ->
  ?nshards:int ->
  ?seed:int ->
  ?fst_bits:int ->
  ?telemetry:bool ->
  unit ->
  result
(** Defaults: 10⁶ flows, 10⁶ datagrams, batches of 4096, shard count
    from {!Fbsr_util.Domain_shim.recommended_domain_count}, FST sized at
    [2^fst_bits] (default 19).

    [telemetry] (default off) arms the whole telemetry plane: per-shard
    heavy-hitter sketches on every engine, a flight recorder ticked from
    the dispatcher's batch hook at 0.05 s (sim) cadence over a registry
    holding both sides (root aggregate + [shard.<i>.] twins), and the
    health monitor evaluated each snapshot. *)

val report :
  ?flows:int ->
  ?datagrams:int ->
  ?batch:int ->
  ?nshards:int ->
  ?seed:int ->
  ?fst_bits:int ->
  ?telemetry:bool ->
  ?json:string ->
  unit ->
  result
(** {!run}, print the human summary (plus top flows, health verdicts and
    a drop dashboard when [telemetry]), optionally write the JSON
    artifact: an [fbsr-zipf/1] document, with a [telemetry] member
    (timeseries, health, flowstats) when the run was telemetered. *)

(** {2 Miss-rate curve}

    The Section 7.3 figure 11-14 analogue re-measured at million-flow
    scale: each sweep point runs a fresh (cold-cache) sharded pair under
    a Zipf workload of that many offered flows and reports the active
    flow count against the aggregate TFKC and RFKC miss rates summed
    across shards. *)

type curve_row = {
  offered_flows : int;  (** flow population offered to the Zipf stream *)
  active_flows : int;  (** distinct flows the stream actually touched *)
  tfkc_accesses : int;
  tfkc_miss_rate : float;  (** misses over accesses, all sender shards *)
  rfkc_accesses : int;
  rfkc_miss_rate : float;  (** misses over accesses, all receiver shards *)
  point_flow_key_computations : int;
}

type curve = {
  points : curve_row list;
  datagrams_per_point : int;
  curve_nshards : int;
  curve_elapsed_s : float;
  curve_failures : string list;  (** violated invariants; empty iff ok *)
  curve_ok : bool;
}

val default_points : int list
(** 10³ … 10⁶ in roughly half-decade steps. *)

val curve_report :
  ?points:int list ->
  ?datagrams:int ->
  ?batch:int ->
  ?nshards:int ->
  ?seed:int ->
  ?fst_bits:int ->
  ?json:string ->
  unit ->
  curve
(** Run the curve, print it as a table, optionally write the JSON
    artifact (an [fbsr-zipf-miss-curve/1] document).  [datagrams]
    (default 200 000) is the per-point round-trip budget.  Every datagram
    must still round-trip cleanly at every point.
    @raise Invalid_argument on an empty [points] list. *)

(** {2 Sweeper-cadence study}

    The other open half of the §7.3 ROADMAP item: under Zipf skew, how
    often should the FAM sweeper run?  Each point replays the same
    skewed workload against a fresh sharded pair whose dispatcher FST
    has a deliberately short idle THRESHOLD, sweeping at a different
    cadence (0 = never).  Hot flows survive any cadence; tail flows
    swept out between revisits restart as fresh flows — new sfl, new
    flow-key derivation — so the table reads as FST occupancy versus
    restart-and-rekey churn, with the per-tick TFKC miss-rate series
    recovered from the flight recorder. *)

type sweep_row = {
  cadence_s : float;  (** seconds between sweeps; 0 = never swept *)
  sweeps : int;
  expired : int;  (** flows the sweeper expired *)
  sw_flows_started : int;
  restarts : int;  (** [flows_started] minus distinct flows touched *)
  active_end : int;  (** FST occupancy at the end of the run *)
  sw_tfkc_accesses : int;
  sw_tfkc_miss_rate : float;
  sw_flow_keys : int;
  miss_series : (float * float) list;
      (** [(time, interval TFKC miss rate)] per recorder tick *)
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

val sweep_study_report :
  ?cadences:float list ->
  ?flows:int ->
  ?datagrams:int ->
  ?batch:int ->
  ?round_dt:float ->
  ?threshold:float ->
  ?nshards:int ->
  ?seed:int ->
  ?fst_bits:int ->
  ?json:string ->
  unit ->
  sweep_study
(** Run the study, print the table, optionally write the artifact (an
    [fbsr-sweep-study/1] document).  Defaults: cadences 0.25 … 5.0 s plus
    never, 10⁵ flows, 120 000 datagrams per point in batches of 1024,
    the simulated clock advancing [round_dt] (0.1 s) per batch, idle
    threshold 2 s.  Every datagram must still round-trip cleanly at
    every point.
    @raise Invalid_argument on an empty [cadences] list. *)
