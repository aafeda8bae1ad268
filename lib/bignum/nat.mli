(** Arbitrary-precision natural numbers on 26-bit limbs.

    This is the arithmetic substrate for Diffie-Hellman zero-message keying
    and RSA certificate signatures.  Modular exponentiation uses Montgomery
    reduction for odd moduli of up to 511 limbs (every real-world DH/RSA
    modulus), with a product that defers its carries to one pass at the
    end.  The prime search runs trial division by the odd primes below
    2048 before Miller-Rabin and draws from the random stream exactly
    what Miller-Rabin alone would: the same seed finds the same keys. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [Some v] iff the value fits a native int. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val bit_length : t -> int
val testbit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** Quotient and remainder. @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t
val gcd : t -> t -> t

val mod_pow : t -> t -> t -> t
(** [mod_pow base e m] is [base]{^[e]} mod [m].  Montgomery-accelerated for
    odd [m] of up to 511 limbs. *)

val mod_inv : t -> t -> t
(** [mod_inv a m] is the inverse of [a] modulo [m].
    @raise Not_found if [gcd a m <> 1]. *)

(** Montgomery context for repeated exponentiations modulo the same odd
    modulus (as in a Diffie-Hellman group). *)
module Mont : sig
  type ctx

  val make : t -> ctx
  (** @raise Invalid_argument unless the modulus is odd and positive and
      at most 511 limbs (13 286 bits) wide. *)

  val pow : ctx -> t -> t -> t
end

val of_bytes_be : string -> t
val to_bytes_be : ?length:int -> t -> string
(** Big-endian bytes; [?length] left-pads with zeros to a fixed width.
    @raise Invalid_argument if the value does not fit in [length]. *)

val of_hex : string -> t
val to_hex : t -> string
val to_string : t -> string
(** Decimal rendering. *)

val random_below : Fbsr_util.Rng.t -> t -> t
(** Uniform in [0, bound). *)

val is_probably_prime : ?rounds:int -> Fbsr_util.Rng.t -> t -> bool
(** Miller-Rabin with [rounds] random witnesses (default 20).  A value
    above 2{^26} with an odd prime factor below 2048 is refused by trial
    division first; it still draws the one witness with which Miller-Rabin's
    first round would have refused it (none if [rounds = 0]).
    @raise Invalid_argument on an odd value wider than 511 limbs that
    passes trial division. *)

val random_prime : ?rounds:int -> Fbsr_util.Rng.t -> bits:int -> t
(** Random prime with exactly [bits] bits (top bit set). *)
