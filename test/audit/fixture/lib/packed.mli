val apply : int -> int
(** Reached only through [(module Packed : Shape.S)]. *)
