(** Certificate authority: signing key plus a directory of enrolled
    principals. *)

type t

val create :
  ?hash:Fbsr_crypto.Hash.t ->
  ?validity:float ->
  rng:Fbsr_util.Rng.t ->
  bits:int ->
  unit ->
  t

val public : t -> Fbsr_crypto.Rsa.public_key
val hash : t -> Fbsr_crypto.Hash.t

val enroll :
  t -> now:float -> subject:string -> group:string -> public_value:string -> Certificate.t

val lookup : t -> string -> Certificate.t option
val revoke : t -> string -> unit
val issued : t -> int
