(** Generic soft-state cache: set-associative, LRU-within-set, pluggable
    randomising hash, three-C's miss classification (paper Section 5.3).

    {b Classifier cost.}  With [classify] on (the default), every {!find}
    and {!insert} computes the key's fingerprint (the [fingerprint] given
    to {!create}) once and touches a shadow fully-associative LRU of the
    same capacity, in amortised O(1) time through an open-addressing int
    table from fingerprint to list node, without allocating when the
    fingerprint is already in it.  Whether a missing key is cold is
    answered by a set of those fingerprints in an open-addressing [Bytes]
    table in Robin Hood order, which doubles only past load 7/8: 9 to 18
    bytes per distinct key ever inserted, no key object retained,
    nothing for the GC to scan, and the search for a fingerprint not in
    the set (every cold miss) stops at the first entry nearer its own
    home slot.  No
    table runs a polymorphic hash or equality.  A key is marked by
    {!insert}, so a miss is cold until its key has been cached once: a
    key that only ever missed (its value was never inserted, or its fetch
    is still pending) stays cold and costs no slot.  The set is never
    shrunk, and it survives {!clear}, so a miss after [clear] on a key
    inserted before is classified as a capacity or conflict miss, not a
    cold one.

    {b Collisions.}  The classifier knows a key only by its fingerprint
    (a fingerprint of 0 is read as 1, the empty-slot marker being 0).
    Two distinct keys with equal fingerprints make the second one's first
    miss count as capacity or conflict instead of cold, and make the
    shadow hold one node for both.  The bound is the caller's: a
    fingerprint that behaves as a uniformly random 63-bit value keeps the
    probability of any collision among [n] distinct keys below
    [n{^2}/2{^63}] (about [1e-7] at [n = 10{^6}]), as
    {!Fbsr_util.Fingerprint} does, and one that is injective on the keys
    (a small int key plus one) never collides.  Only the statistics can
    change: no lookup, eviction or stored value depends on the
    classifier. *)

type stats = {
  mutable hits : int;
  mutable misses_cold : int;
  mutable misses_capacity : int;
  mutable misses_conflict : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type ('k, 'v) t

type replacement = Lru | Fifo | Random of Fbsr_util.Rng.t
(** Within-set replacement policy (Section 5.3 lists "a better replacement
    policy" among the levers against conflict misses). *)

val create :
  ?assoc:int ->
  ?classify:bool ->
  ?replacement:replacement ->
  ?name:string ->
  sets:int ->
  hash:('k -> int) ->
  fingerprint:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [hash] places a key in its set; [fingerprint] names it to the miss
    classifier, computed once per {!find} and {!insert} (see
    Collisions); [equal] decides a hit.  [classify:false] disables the
    classifier and never calls [fingerprint] (faster; every miss counts
    as capacity).  Default replacement is [Lru].
    [name] labels the cache in metrics output. *)

val name : ('k, 'v) t -> string

val register_metrics : ('k, 'v) t -> Fbsr_util.Metrics.t -> unit
(** Register pull-probes for every {!stats} field under the registry's
    current prefix ([hits], [misses.cold], [misses.capacity],
    [misses.conflict], [misses.total], [evictions], [invalidations]) —
    scope the registry first, e.g.
    [register_metrics c (Metrics.sub m "fbs.cache.tfkc")]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The key's value, counted as a hit or a classified miss.  A hit
    allocates nothing: the result was made once, at {!insert}. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} but does not touch statistics or LRU state. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
val invalidate : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit
val fold : ('k, 'v) t -> ('k -> 'v -> 'a -> 'a) -> 'a -> 'a
val occupancy : ('k, 'v) t -> int

val stats : ('k, 'v) t -> stats
val total_misses : stats -> int
val accesses : stats -> int
