(** Heavy-hitter flow sketches: Space-Saving top-K candidates backed by a
    count-min estimator, keyed on 64-bit flow labels.

    The design splits responsibilities so the merged-across-shards sketch is
    *canonically identical* to a single sketch over the union stream:

    - The count-min array is a linear function of the observed multiset
      (plain updates, no conservative trick), so summing per-shard arrays
      cell-by-cell reconstructs exactly the single-sketch array.
    - The Space-Saving slots only nominate *candidates*; reported estimates
      are always re-read from the count-min side, which is order-independent.
      [top] and [to_json] therefore do not expose the order-dependent
      Space-Saving counters.

    The hit path ([observe] on a key already holding a slot) performs no
    allocation, preserving the datapath's exact allocs-per-datagram gate. *)

type t

val none : t
(** Shared disabled sketch: [observe] is a single branch, zero cost. *)

val create : ?slots:int -> ?cm_width:int -> unit -> t
(** [slots] Space-Saving capacity (default 512); [cm_width] count-min
    columns, rounded up to a power of two (default 8192), in each of 4
    count-min rows.  State is [O(slots + cm_width)], independent of the
    number of distinct keys observed. *)

val enabled : t -> bool

val observe : t -> int64 -> int -> unit
(** [observe t key weight] adds [weight] to [key]'s count.  No-op when
    disabled.  Allocation-free when [key] already occupies a slot. *)

val total : t -> int
(** Sum of all observed weights. *)

val distinct_tracked : t -> int
(** Number of Space-Saving slots currently occupied (at most [slots]). *)

val estimate : t -> int64 -> int
(** Count-min point estimate: never under the true count; over by at most
    [e/cm_width * total] with probability [1 - exp(-4)]. *)

val ss_bound : t -> int
(** Space-Saving guarantee: any key with true count > [total t / slots] is
    guaranteed to occupy a slot (and hence to be a [top] candidate). *)

val top : t -> int -> (int64 * int) list
(** [top t k] is the top-[k] candidates ordered by count-min estimate
    (descending, ties broken by ascending key).  Deterministic given the
    count-min state and the candidate set. *)

val merge : t list -> t
(** Exact merge: count-min arrays are summed cell-by-cell (requires identical
    dimensions, which share one seed schedule), totals added, and candidate
    slots recombined keeping the largest.  Keys must be disjoint across
    inputs for the Space-Saving guarantee to carry over, which holds for
    sfl-sharded engines.
    @raise Invalid_argument on dimension mismatch or empty list. *)

val cm_checksum : t -> int
(** Order-independent digest of the count-min array, totals and dimensions;
    equal checksums mean identical estimator state. *)

val to_json : t -> Json.t
(** Canonical ["fbsr-sketch/1"] form: dimensions, total, [cm_checksum], and
    the [top 32] candidates with count-min estimates.  Contains
    no order-dependent state, so a merged sketch serializes byte-for-byte
    equal to the single sketch over the same observations. *)
