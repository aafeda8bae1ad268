(** Blum-Blum-Shub cryptographically secure PRNG (quadratic residues).

    Deliberately expensive (one modular squaring per bit): it exists so the
    per-datagram-key variant of the host-pair-keying baseline pays the cost
    the paper says makes that scheme a bottleneck (Section 2.2). *)

type t

val create : ?modulus_bits:int -> Fbsr_util.Rng.t -> seed:string -> t
(** Generate a fresh Blum modulus (two primes ≡ 3 mod 4) and seed the
    generator.  [rng] drives prime generation only. *)

val next_bit : t -> int
val bytes : t -> int -> string
