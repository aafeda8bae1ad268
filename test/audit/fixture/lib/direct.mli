val called : int -> int
(** Called by name from [User]. *)

val dead : int -> int
(** Called only by [called], inside this module. *)
