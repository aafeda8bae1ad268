(** Hexadecimal encoding and decoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hexadecimal rendering of [s]. *)

val decode : string -> string
(** [decode h] parses a hexadecimal string back into bytes.  Spaces and
    newlines in [h] are ignored, so RFC-style grouped vectors can be pasted
    verbatim.  @raise Invalid_argument on non-hex input or odd length. *)
