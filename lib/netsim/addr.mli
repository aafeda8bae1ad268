(** IPv4 addresses. *)

type t = private int

val of_int : int -> t
val to_int : t -> int
val of_octets : int -> int -> int -> int -> t
val of_string : string -> t
(** Dotted quad. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val equal : t -> t -> bool

val broadcast : t
val any : t

val in_subnet : network:t -> prefix:int -> t -> bool
