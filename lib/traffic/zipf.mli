(** Zipf-distributed rank sampling for flow popularity.

    Internet flow popularity is heavy-tailed: a few flows carry most
    datagrams while a long tail appears once.  [P(rank = i) ∝ 1/(i+1)^s]
    over ranks [0..n-1]; rank 0 is the most popular flow.  The sampler
    precomputes the normalized CDF once ([O(n)] floats) and answers each
    draw with a binary search, so sampling a million-flow distribution
    costs [O(log n)] and allocates nothing. *)

type t

val create : ?s:float -> n:int -> Fbsr_util.Rng.t -> t
(** [create ~n rng] builds a sampler over [n] ranks with exponent [s]
    (default 1.0, the classic Zipf).  Draws consume [rng].
    @raise Invalid_argument if [n < 1] or [s < 0]. *)

val sample : t -> int
(** A rank in [\[0, n)], rank 0 most frequent.  Deterministic in the
    creating rng's state. *)

val mass : t -> int -> float
(** [mass t i] — the probability of rank [i]. *)
