(** 63-bit key fingerprints for the key caches' miss classifier.

    A fingerprint names a cache key by one int, so the classifier's
    tables hold ints and never the key.  It is built from xorshift and
    odd-multiplier steps, each a bijection of the 63-bit ints: unlike a
    second CRC-32 over the same bytes, it is not affine, so it does not
    collide exactly where the cache's CRC-32 index does.

    Chained as [string ~seed:(int64 v) s], it never maps two values of
    [v] that differ in their low 63 bits to one fingerprint for the same
    [s], since every step is invertible.  Across distinct strings it is
    taken as a uniformly random 63-bit value: two keys share a
    fingerprint with probability about [2{^-63}]. *)

val int64 : int64 -> int
(** A seed from a 64-bit value: a bijection of its low 63 bits, with the
    top bit folded in. *)

val string : seed:int -> string -> int
(** [string ~seed s] folds the length and the bytes of [s] into [seed],
    seven bytes per step.  For a fixed [s] it is a bijection of
    [seed]. *)
