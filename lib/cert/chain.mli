(** Certificate chains: a root of trust, intermediate CA certificates, and
    a leaf public-value certificate (the paper's "distributed certification
    hierarchy"). *)

type ca_cert = {
  name : string;
  public : Fbsr_crypto.Rsa.public_key;
  not_before : float;
  not_after : float;
  signature : string;
}

val sign_ca :
  parent_key:Fbsr_crypto.Rsa.private_key ->
  hash:Fbsr_crypto.Hash.t ->
  name:string ->
  public:Fbsr_crypto.Rsa.public_key ->
  not_before:float ->
  not_after:float ->
  ca_cert

val encode : ca_cert -> string

exception Bad_certificate of string

val decode : string -> ca_cert

type verify_error =
  | Bad_link of string
  | Link_expired of string
  | Leaf_invalid of Certificate.verify_error

val verify_chain :
  root:Fbsr_crypto.Rsa.public_key ->
  hash:Fbsr_crypto.Hash.t ->
  now:float ->
  intermediates:ca_cert list ->
  ?expected_subject:string ->
  Certificate.t ->
  (unit, verify_error) result
