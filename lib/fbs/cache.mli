(** Generic soft-state cache: set-associative, LRU-within-set, pluggable
    randomising hash, three-C's miss classification (paper Section 5.3).

    {b Classifier cost.}  With [classify] on (the default), every access
    also touches a shadow fully-associative LRU of the same capacity, in
    amortised O(1) time and without allocating when the key is already in
    it.
    Whether a missing key is cold is answered by a set of 60-bit key
    fingerprints (two seeded [Hashtbl.seeded_hash] calls, independent of
    the [hash] given to {!create}) in an open-addressing [Bytes] table
    that doubles at load 1/2: 16 to 32 bytes per distinct key ever
    inserted, no key object retained, nothing for the GC to scan.  A key
    is marked by {!insert}, so a miss is cold until its key has been
    cached once: a key that only ever missed (its value was never
    inserted, or its fetch is still pending) stays cold and costs no
    slot.  The set is never shrunk, and it survives {!clear}, so a miss
    after [clear] on a key inserted before is classified as a capacity or
    conflict miss, not a cold one.

    {b Collisions.}  Two distinct keys with equal fingerprints make the
    second one's first miss count as capacity or conflict instead of
    cold.  For [n] distinct keys per cache the probability of any such
    collision is at most [n{^2}/2{^61}] (about [4e-7] at [n = 10{^6}]),
    for keys small enough that the polymorphic hash reads all of them (at
    most 10 meaningful words, e.g. a tuple of an [int64] and two
    strings).  Only the statistics can change: no lookup, eviction or
    stored value depends on the classifier. *)

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
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [classify:false] disables the shadow-LRU bookkeeping (faster; all
    non-cold misses count as capacity).  Default replacement is [Lru].
    [name] labels the cache in metrics output. *)

val name : ('k, 'v) t -> string

val register_metrics : ('k, 'v) t -> Fbsr_util.Metrics.t -> unit
(** Register pull-probes for every {!stats} field under the registry's
    current prefix ([hits], [misses.cold], [misses.capacity],
    [misses.conflict], [misses.total], [evictions], [invalidations]) —
    scope the registry first, e.g.
    [register_metrics c (Metrics.sub m "fbs.cache.tfkc")]. *)

val find : ('k, 'v) t -> 'k -> 'v option
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
