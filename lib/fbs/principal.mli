(** Opaque principal names (hosts, applications, users — layer-dependent). *)

type t

val of_string : string -> t
val to_string : t -> string
val encode : t -> string
(** Length-prefixed canonical encoding used inside key derivation. *)

val hash : t -> int
