(** FIFO byte queue with random-access reads (mini-TCP send buffer). *)

type t

val create : unit -> t
val length : t -> int
val push : t -> string -> unit
val drop : t -> int -> unit
(** Drop [n] bytes from the front. *)

val read : t -> off:int -> len:int -> string
(** Read a range relative to the current front, without consuming. *)
