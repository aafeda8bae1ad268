(** Linear congruential generator (Knuth MMIX parameters).

    The paper's recommended generator for per-datagram confounders:
    statistically random, very cheap, not cryptographically secure. *)

type t

val create : int -> t
val next_u32 : t -> int
(** High 32 bits of the next state — the strongest bits of an LCG. *)

val next_block : t -> int -> string
(** [next_block t n] is [n] bytes of generator output. *)
