(** RSA signatures (PKCS#1 v1.5-style padding, CRT private operation).

    Used by the certificate authority to sign Diffie-Hellman public-value
    certificates. *)

open Fbsr_bignum

type public_key = { n : Nat.t; e : Nat.t }
type private_key

val generate : Fbsr_util.Rng.t -> bits:int -> private_key
(** A key with public exponent 65537. *)

val public_key : private_key -> public_key

val sign : private_key -> string -> string
(** The signature of the message's MD5 digest, encoded as
    [00 01 FF..FF 00 "md5:" digest]. *)

val verify : public_key -> string -> signature:string -> bool

val private_op : private_key -> Nat.t -> Nat.t
val public_op : public_key -> Nat.t -> Nat.t

(**/**)
