(** Algorithm suites selected by the FBS header's algorithm-identification
    field: the paper's suite and the nullified one its Figure 8 measures
    against. *)

type t = private { id : int }

val paper_md5_des : t
(** The paper's implementation: keyed MD5 + DES-CBC (suite id 0). *)

val nop : t
(** "Nullified" encryption and MAC, for the Figure 8 FBS NOP measurement
    (suite id 255). *)

val is_nop : t -> bool
val all : t list
val of_id : int -> t option
val name : t -> string
