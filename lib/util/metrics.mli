(** Unified metrics registry: pull-probes over existing statistics
    records, and log-bucket histograms.

    Names are dotted paths ("fbs.engine.drops.mac", "netsim.link.corrupted");
    {!sub} derives a prefixed view of the same registry so per-instance
    metrics ("host.10.0.0.1.fbs.engine.sends") can coexist with aggregates.
    Probes registered under one name are SUMMED on read, which is how
    per-host components aggregate into site-wide totals.  A histogram
    update is a bucket scan and three stores — no allocation on the hot
    path. *)

type t
(** A registry (or a scoped view of one — see {!sub}). *)

val create : ?scope:string -> unit -> t

val sub : t -> string -> t
(** [sub t s] shares [t]'s cells under the prefix [s ^ "."]. *)

(** {1 Histograms} *)

type histogram

val histogram : ?buckets:float array -> t -> string -> histogram
(** Fixed log-scale buckets.  [buckets] gives the strictly-increasing upper
    bounds (an overflow bucket is implicit); the default is 5 buckets per
    decade from 1e-6 to 1e2.
    @raise Invalid_argument on empty or non-increasing bounds. *)

val observe : histogram -> float -> unit
(** Bucket [i] counts [bounds.(i-1) < v <= bounds.(i)]; underflow lands in
    the first bucket, overflow in the implicit last.  Allocation-free. *)

(** {1 Probes}

    Read-time closures over statistics records the registry does not own:
    the record keeps being updated exactly as before, the registry only
    evaluates the closure when read.  Registering several probes under one
    name sums them. *)

val register_probe : t -> string -> (unit -> int) -> unit

(** {1 Reading} *)

val mem : t -> string -> bool

val get : t -> string -> int
(** Integer view: probe sum or histogram observation count.
    @raise Invalid_argument on unknown names (loud on typos — use {!mem}
    to test). *)

type value =
  | Int of int
  | Hist of { count : int; sum : float; buckets : (float * float * int) list }

val snapshot : t -> (string * value) list
(** Sorted, prefix-filtered point-in-time read of every metric. *)

val to_text : t -> string
(** Prometheus-style text exposition of everything under this view's
    prefix.  Dotted names fold to underscores (a leading digit is guarded
    with ['_']); every metric gets a [# HELP] line naming it (help text
    and label values are escaped per the exposition format) followed by
    [# TYPE].  Probes emit as [counter], histograms as [histogram] with
    cumulative [_bucket{le="..."}] lines (empty interior buckets elided, a
    final [le="+Inf"] always present) plus [_sum] and [_count]. *)
