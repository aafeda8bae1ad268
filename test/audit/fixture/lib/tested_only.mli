val count : unit -> int
(** Read by a test only: nothing in [User] calls it. *)

val probe : int -> int
(** Likewise. *)
