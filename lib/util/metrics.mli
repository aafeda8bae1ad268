(** Unified metrics registry: named counters, gauges, log-bucket
    histograms, and pull-probes over existing statistics records.

    Names are dotted paths ("fbs.engine.drops.mac", "netsim.link.corrupted");
    {!sub} derives a prefixed view of the same registry so per-instance
    metrics ("host.10.0.0.1.fbs.engine.sends") can coexist with aggregates.
    Updates to owned cells are single mutable-field stores — no allocation
    on the hot path.  Probes registered under one name are SUMMED on read,
    which is how per-host components aggregate into site-wide totals. *)

type t
(** A registry (or a scoped view of one — see {!sub}). *)

val create : ?scope:string -> unit -> t
val default : t
(** The process-wide registry. *)

val sub : t -> string -> t
(** [sub t s] shares [t]'s cells under the prefix [s ^ "."]. *)

val scope : t -> string
(** The current dotted prefix, "" for the root (trailing [.] included). *)

(** {1 Owned cells} *)

type counter

val counter : t -> string -> counter
(** Create-or-fetch: the same name yields the same cell.
    @raise Invalid_argument if the name holds a different metric kind. *)

val incr : ?by:int -> counter -> unit
(** @raise Invalid_argument if [by < 0]: counters are monotone. *)

val counter_value : counter -> int
val counter_name : counter -> string

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

type histogram

val histogram : ?buckets:float array -> t -> string -> histogram
(** Fixed log-scale buckets.  [buckets] gives the strictly-increasing upper
    bounds (an overflow bucket is implicit); the default is 5 buckets per
    decade from 1e-6 to 1e2.
    @raise Invalid_argument on empty or non-increasing bounds. *)

val observe : histogram -> float -> unit
(** Bucket [i] counts [bounds.(i-1) < v <= bounds.(i)]; underflow lands in
    the first bucket, overflow in the implicit last.  Allocation-free. *)

val time : histogram -> clock:(unit -> float) -> (unit -> 'a) -> 'a
(** Run the thunk and observe its elapsed [clock] span (also on raise). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * float * int) list
(** [(lower, upper, count)] per bucket, including the overflow bucket;
    the first lower bound is [neg_infinity], the last upper is [infinity]. *)

(** {1 Probes}

    Read-time closures over statistics records the registry does not own:
    the record keeps being updated exactly as before, the registry only
    evaluates the closure when read.  Registering several probes under one
    name sums them. *)

val register_probe : t -> string -> (unit -> int) -> unit
val register_probe_f : t -> string -> (unit -> float) -> unit

val describe : t -> string -> string -> unit
(** [describe t name text] registers the [# HELP] text {!to_text} emits
    for [name] (resolved under this view's prefix).  Metrics without a
    description get a generated [# HELP] line. *)

(** {1 Reading} *)

val mem : t -> string -> bool

val get : t -> string -> int
(** Integer view: counter value, probe sum, histogram observation count,
    truncated gauge.  @raise Invalid_argument on unknown names (loud on
    typos — use {!mem} to test). *)

val get_float : t -> string -> float
(** Float view; for histograms, the sum of observations. *)

val names : t -> string list
(** Sorted full names visible under this view's prefix. *)

type value =
  | Int of int
  | Float of float
  | Hist of { count : int; sum : float; buckets : (float * float * int) list }

val snapshot : t -> (string * value) list
(** Sorted, prefix-filtered point-in-time read of every metric. *)

val reset : t -> unit
(** Zero owned cells under this view's prefix; probes (live records owned
    elsewhere) are untouched. *)

val to_json : t -> Json.t
(** Object keyed by full metric name; histograms serialize as
    [{count, sum, buckets: [[upper, n], ...]}] with empty buckets elided. *)

val to_text : t -> string
(** Prometheus-style text exposition of everything under this view's
    prefix.  Dotted names fold to underscores (a leading digit is guarded
    with ['_']); every metric gets a [# HELP] line (see {!describe}; help
    text and label values are escaped per the exposition format) followed
    by [# TYPE].  Counters and int probes emit as [counter], gauges and
    float probes as [gauge], histograms as [histogram] with cumulative
    [_bucket{le="..."}] lines (empty interior buckets elided, a final
    [le="+Inf"] always present) plus [_sum] and [_count]. *)

val pp : Format.formatter -> t -> unit
