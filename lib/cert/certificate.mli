(** Public-value certificates (compact X.509 stand-in).

    Bind a principal name to its Diffie-Hellman public value under a
    certificate authority's RSA signature over the MD5 digest of the
    fields ({!Fbsr_crypto.Rsa.sign}). *)

type t = {
  subject : string;
  group : string;
  public_value : string;
  not_before : float;
  not_after : float;
  signature : string;
}

val encode : t -> string

exception Bad_certificate of string

val decode : string -> t
(** @raise Bad_certificate on truncation. *)

val sign :
  ca_key:Fbsr_crypto.Rsa.private_key ->
  subject:string ->
  group:string ->
  public_value:string ->
  not_before:float ->
  not_after:float ->
  t

type verify_error = Bad_signature | Expired of float | Wrong_subject of string

val verify :
  ca_public:Fbsr_crypto.Rsa.public_key ->
  now:float ->
  ?expected_subject:string ->
  t ->
  (unit, verify_error) result

val public_nat : t -> Fbsr_bignum.Nat.t
val pp_verify_error : Format.formatter -> verify_error -> unit
