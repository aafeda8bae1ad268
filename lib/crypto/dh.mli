(** Diffie-Hellman key agreement — the basis of FBS zero-message keying. *)

open Fbsr_bignum

type group = private { p : Nat.t; g : Nat.t; ctx : Nat.Mont.ctx; name : string }

val oakley2 : group lazy_t
(** The 1024-bit Oakley Group 2 MODP prime, generator 2. *)

val test_group : group lazy_t
(** Tiny (61-bit Mersenne) group for fast unit tests. *)

val generate_group : ?bits:int -> Fbsr_util.Rng.t -> group
(** Fresh safe-prime group. *)

type private_value
type public_value = Nat.t

val gen_private : group -> Fbsr_util.Rng.t -> private_value
val public : group -> private_value -> public_value

val public_in_range : group -> public_value -> bool
(** Whether a peer's value lies in [\[2, p)], the range {!shared}
    accepts: check a value read off the wire before spending a modular
    exponentiation on it. *)

val shared : group -> private_value -> public_value -> Nat.t
(** [shared g s peer] is [peer]{^s} mod p.
    @raise Invalid_argument if the peer value is out of range. *)

val shared_bytes : group -> private_value -> public_value -> string
(** Fixed-width big-endian encoding of the shared secret. *)

val public_to_bytes : group -> public_value -> string
val public_of_bytes : string -> public_value
