(** Per-datagram causal tracing: spans over the flow lifecycle.

    Where {!Metrics} answers "how many", [Span] answers "what happened, in
    what order, where did datagram #4711 spend its time, and at which
    stage was it dropped?".  Each datagram entering the FBS send path (and
    each MKD certificate fetch) is assigned a 64-bit trace id; every
    instrumented stage — FAM classification, flow-key derivation, sealing,
    link transit, decapsulation, receive processing, the replay check —
    records a span (begin/end timestamps plus an optional terminal
    outcome) into a bounded per-host flight recorder.

    The trace id travels in a {e sidecar context}: a process-ambient
    current-id cell that the sender sets before handing the datagram down
    and that the simulated network captures at transmit time and restores
    around each delivery, so receive-side spans join the sender's trace
    without a single wire-format byte.  This mirrors how the network
    itself is simulated: delivery metadata lives in the scheduler closure,
    not in the frame.

    Cost discipline: the shared {!none} recorder is disabled,
    [enabled none = false], and instrumented code guards every span
    construction with one branch —

    {[
      let tm = if Span.enabled sp then Some (Span.start sp) else None in
      ... stage work ...
      match tm with
      | Some tm -> Span.finish sp tm "engine.seal"
      | None -> ()
    ]}

    so a disabled datapath pays one branch and allocates nothing. *)

(** {1 Trace ids and the sidecar context} *)

val fresh_id : unit -> int64
(** A new nonzero 64-bit trace id (SplitMix64 sequence — well-spread,
    deterministic per process). *)

val current : unit -> int64
(** The ambient current trace id; [0L] means "no trace in scope". *)

val set_current : int64 -> unit
(** Overwrite the ambient id (the sender side does this once per
    datagram; only call it under an [enabled] guard). *)

val clear_current : unit -> unit
(** [set_current 0L]. *)

val with_current : int64 -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient id set to [id], restoring the previous
    id afterwards (also on raise).  This is the delivery-side half of the
    sidecar: the network captures [current ()] at transmit time and wraps
    each delivery callback in [with_current], so everything a delivery
    triggers — decap, receive, replay, even the acknowledgement's own send
    (which overwrites the scope with a fresh id) — is attributed
    correctly and the previous context is restored when the event ends. *)

(** {1 Spans and recorders} *)

type span = {
  seq : int;  (** process-wide monotone record number (stable sort key) *)
  id : int64;  (** the datagram's trace id *)
  stage : string;  (** e.g. ["engine.seal"], ["netsim.link"] *)
  host : string;  (** recorder's host label, [""] when unattributed *)
  t_begin : float;  (** timeline clock at {!start} *)
  t_end : float;  (** timeline clock at {!finish} *)
  cost : float;  (** elapsed cost clock (seconds); = timeline when no
                     separate cost clock was given *)
  outcome : string;  (** [""] non-terminal; ["delivered"] or ["drop:<cause>"]
                         where the datagram's life ends *)
  detail : (string * Json.t) list;  (** stage-specific attribution, e.g.
                                        cache hit/miss, fault verdicts *)
}

type t
(** A bounded flight recorder (one per host in a simulated site).  When
    full, new spans overwrite the oldest. *)

(** {2 Adaptive sampling}

    At millions of flows an unsampled ring only remembers the last instant
    of traffic.  A {!sampler} thins retention instead: chains are
    head-sampled by trace-id hash (keep 1 in [ratio]), but any chain whose
    span terminates in a [drop:*] outcome, a forgery/replay verdict, or a
    degradation mark is kept {e in full} — undecided spans park in the
    sampler until their chain's terminal span decides their fate, so the
    complete causal context survives for every anomaly.

    A chain's spans conclude on a different recorder than they began (the
    sender's seal spans terminate at the receiver), so one sampler is
    shared by all of a site's recorders.  The shared state is not
    synchronized: share a sampler only among recorders driven from one
    domain.  Stage histograms ([metrics]) observe every span regardless of
    the sampling decision — sampling thins the causal ring only. *)

type sampler

val sampler : ?pending_cap:int -> ratio:int -> unit -> sampler
(** Keep 1 in [ratio] normal chains ([1] keeps everything).  At most
    [pending_cap] (default 16384) undecided spans park at once; beyond
    that the oldest undecided chains are evicted un-retained.
    @raise Invalid_argument when [ratio < 1]. *)

val ratio : sampler -> int

val sampled_in : sampler -> int64 -> bool
(** The head-sampling decision for a trace id (pure hash, identical on
    every recorder sharing the sampler). *)

val drop_outcome : string -> string
(** Every layer's drop terminal: [drop_outcome "mac" = "drop:mac"]. *)

val is_drop : string -> bool
(** Whether an outcome was made by {!drop_outcome}. *)

val is_anomaly : span -> bool
(** The tail-keep predicate: a [drop:*] or forgery/replay outcome, or a
    ["degraded"] detail mark, makes the whole chain worth keeping
    regardless of the head-sampling decision. *)

type sampler_stats = {
  kept_chains : int;  (** head-sampled chains that reached a terminal *)
  promoted_chains : int;  (** chains retained by the anomaly tail-keep *)
  discarded_chains : int;  (** normal chains sampled out at their terminal *)
  evicted_chains : int;  (** undecided chains dropped at [pending_cap] *)
  pending_spans : int;  (** spans currently parked *)
}

val sampler_stats : sampler -> sampler_stats

val create :
  ?capacity:int ->
  ?host:string ->
  ?clock:(unit -> float) ->
  ?cost_clock:(unit -> float) ->
  ?metrics:Metrics.t ->
  ?sampler:sampler ->
  unit ->
  t
(** Default capacity 8192.  [clock] (default: always 0.0) supplies the
    timeline timestamps — simulated time in netsim runs, so cross-host
    timelines align.  [cost_clock] (default: [clock]) supplies the
    per-stage latency measurement — pass a wall clock to reproduce the
    paper's cost-breakdown table from a simulated run.  [metrics], when
    given, receives one owned histogram per stage (["stage.<stage>"],
    observing {!span.cost} seconds; scope the registry first, e.g.
    [Metrics.sub m "span"]).
    @raise Invalid_argument on negative capacity. *)

val none : t
(** The shared disabled recorder: [enabled none = false]; {!start} and
    {!finish} on it are no-ops. *)

val enabled : t -> bool
val capacity : t -> int
val host : t -> string

type timer
(** A captured begin point (both clocks).  Timers are plain values: one
    may be finished more than once (a duplicated link delivery records two
    spans sharing a begin), and may cross scheduler events (link transit
    finishes at delivery time). *)

val start : t -> timer
(** Read both clocks.  Only call under an [enabled] guard (on a disabled
    recorder it returns a zero timer). *)

val finish :
  t ->
  timer ->
  ?id:int64 ->
  ?outcome:string ->
  ?detail:(string * Json.t) list ->
  string ->
  unit
(** [finish t tm stage] records one span ending now.  [id] defaults to
    [current ()]; pass the id captured at stage entry when the finish may
    run in a later scheduler event (continuations, deliveries).  [outcome]
    (default [""]) marks a terminal span.  No-op on a disabled recorder. *)

val spans : t -> span list
(** Retained spans, oldest first. *)

val total : t -> int
(** Spans recorded since creation/clear, including overwritten ones. *)

val dropped : t -> int
(** [total - retained]: spans lost to ring overwrite. *)

val clear : t -> unit

(** {1 Working with collected spans} *)

val collect : t list -> span list
(** Merge several recorders, sorted by [(t_begin, seq)] — the cross-host
    timeline of a whole site. *)

val ids : span list -> int64 list
(** Distinct trace ids in order of first appearance. *)

val by_id : int64 -> span list -> span list

(** {1 Exporters} *)

val to_json : span list -> Json.t
(** An ["fbsr-spans/1"] document: [{schema, spans: [...]}].  Trace ids
    serialize as 16-digit hex strings (they do not fit [Json.Int]'s
    63-bit range). *)

val of_json : Json.t -> span list
(** Inverse of {!to_json}.
    @raise Invalid_argument on a document that is not fbsr-spans/1. *)

val chrome_json : span list -> Json.t
(** Chrome trace-event JSON (chrome://tracing / Perfetto): one process
    per host, one thread lane per stage, complete ("X") events with
    microsecond [ts]/[dur] from the timeline clock; trace id, outcome,
    cost and detail ride in [args]. *)

val pp_timeline : ?id:int64 -> Format.formatter -> span list -> unit
(** Plain-text per-flow timeline: one block per trace id (or just [id]),
    one line per span with host, relative begin time, stage, duration and
    outcome/detail. *)

type stage_stat = {
  stat_stage : string;
  count : int;
  p50 : float;  (** median cost, seconds *)
  p99 : float;  (** 99th-percentile cost, seconds *)
  worst : float;  (** maximum cost, seconds *)
}

val stage_stats : span list -> stage_stat list
(** Per-stage latency distribution over {!span.cost} (nearest-rank
    percentiles), in datapath order (classify, derive, seal, link, decap,
    receive, replay, then anything else alphabetically). *)
