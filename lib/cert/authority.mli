(** Certificate authority: an RSA signing key plus a directory of
    enrolled principals.  Certificates are signed over MD5
    ({!Certificate.sign}). *)

type t

val create :
  ?validity:float ->
  rng:Fbsr_util.Rng.t ->
  bits:int ->
  unit ->
  t

val public : t -> Fbsr_crypto.Rsa.public_key

val enroll :
  t -> now:float -> subject:string -> group:string -> public_value:string -> Certificate.t

val lookup : t -> string -> Certificate.t option
val revoke : t -> string -> unit
val issued : t -> int
