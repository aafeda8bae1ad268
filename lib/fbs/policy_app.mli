(** Application-layer flows keyed by (destination, conversation tag). *)

type t

val make : ?threshold:float -> alloc:Sfl.allocator -> unit -> t
val map : t -> now:float -> Fam.attrs -> Sfl.t * Fam.decision
val policy : ?threshold:float -> alloc:Sfl.allocator -> unit -> Fam.policy
