(** Deterministic simulation PRNG (splitmix64 core).

    Every experiment in this repository is reproducible from an integer seed.
    Not cryptographically secure — see [Fbsr_crypto.Bbs] for that. *)

type t

val create : int -> t
val split : t -> t
(** Derive an independent child stream. *)

val next_int64 : t -> int64
val bits : t -> int
(** 30 uniform random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val uniform : t -> float
(** Uniform in [0, 1). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Heavy-tailed Pareto draw, >= [scale]. *)

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte uniformly random string. *)

val choose : t -> 'a array -> 'a
val choose_weighted : t -> (float * 'a) list -> 'a
