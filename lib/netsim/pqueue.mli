(** Deterministic binary min-heap (FIFO among equal priorities). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
val peek : 'a t -> (float * 'a) option
