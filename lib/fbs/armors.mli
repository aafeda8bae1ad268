(** The built-in armors: the static table the algorithm-identification
    field's suite id selects from. *)

val all : Armor.armor list
(** One armor per suite of {!Suite.all}, in suite-id order. *)

val of_suite : Suite.t -> Armor.armor
(** The armor whose [suite] has the given suite's id.
    @raise Invalid_argument when the table has none. *)
