(** Bignum reference routines: the bit-serial long division and the
    byte-at-a-time codecs that {!Fbsr_bignum.Nat} used before its
    Algorithm D and linear-codec kernels, kept as the differential
    oracle for them.  Built only from [Nat]'s ring operations, shifts and
    comparisons, never from its division or codecs.  Not used on any
    datapath. *)

open Fbsr_bignum

val divmod : Nat.t -> Nat.t -> Nat.t * Nat.t
(** Quotient and remainder, one dividend bit per step.
    @raise Division_by_zero. *)

val rem : Nat.t -> Nat.t -> Nat.t

val of_bytes_be : string -> Nat.t
val to_bytes_be : ?length:int -> Nat.t -> string
(** Same contract as {!Nat.to_bytes_be}. *)

val mod_pow : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [mod_pow base e m]: square-and-multiply with {!rem} after every
    product, for comparison with Montgomery exponentiation. *)
