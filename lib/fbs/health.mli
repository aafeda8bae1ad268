(** Rule-driven health monitor over the telemetry flight recorder.

    Each cadence (after {!Fbsr_util.Timeseries.tick} lands a new row),
    {!check} evaluates a fixed rule set against the interval deltas of
    the newest two rows and records any firings:

    - [tfkc-miss-rate] / [rfkc-miss-rate]: the interval miss rate of the
      flow-key cache ([fbs.cache.{tfkc,rfkc}.misses.total] against
      [.hits]) exceeded 0.5 with at least 32 lookups in the interval —
      the soft-state recovery storm of the paper's Section 6, caught
      live.
    - [forgery-drops]: nonzero interval delta of [fbs.engine.drops.mac]
      — somebody's MACs are failing verification.
    - [replay-drops]: nonzero interval delta of
      [fbs.engine.drops.stale + fbs.engine.drops.duplicate].
    - [stage-p99]: any per-stage interval p99 column
      ([*.stage.<stage>.p99]) exceeded 0.01 seconds.
    - [shard-imbalance]: with at least 32 interval sends, the busiest
      shard's [shard.<i>.fbs.engine.sends] delta exceeded 4 times the
      per-shard mean.

    Every firing updates the rule's fired count and worst-seen record;
    {!to_json} serializes the whole monitor as the ["fbsr-health/1"]
    artifact section.  The monitor is advisory: {!ok} reports whether any
    rule ever fired, and scenario drivers decide what that means (a
    fault-injection run {e expects} firings — they prove the monitor sees
    the faults). *)

type t

val none : t
(** Shared disabled monitor: [check] is a single branch. *)

val create : ts:Fbsr_util.Timeseries.t -> unit -> t
(** A monitor over [ts] with the fixed rule set above. *)

val check : t -> now:float -> unit
(** Evaluate the rules if the recorder has taken a new row since the
    last call (and has at least two rows to delta).  Call right after
    [Timeseries.tick] from the same loop. *)

val checks : t -> int
(** Evaluations performed (calls that saw a fresh row). *)

val to_json : t -> Fbsr_util.Json.t
(** ["fbsr-health/1"]: [{schema; checks; fired; ok; rules: [{rule;
    fired; threshold; worst: {at; value; detail} | null}]}]. *)

val report : Format.formatter -> t -> unit
(** One line per rule: fired count, threshold, worst observation. *)
