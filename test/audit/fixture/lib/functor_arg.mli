val apply : int -> int
(** Reached only as the argument of [User.Twice]. *)
