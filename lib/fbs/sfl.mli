(** Security flow labels: 64-bit, unique per flow, counter-allocated with a
    randomized start (paper, Section 5.3). *)

type t

val equal : t -> t -> bool
val to_int64 : t -> int64
val of_int64 : int64 -> t
val pp : Format.formatter -> t -> unit

type allocator

val allocator : rng:Fbsr_util.Rng.t -> allocator
val fresh : allocator -> t
val allocated : allocator -> int
