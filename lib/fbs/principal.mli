(** Opaque principal names (hosts, applications, users — layer-dependent). *)

type t

val of_string : string -> t
val to_string : t -> string

val hash : t -> int
