(** Minimal dependency-free JSON for the observability layer: Metrics/Span
    serialization, the [BENCH_*.json] artifacts and their differ.

    Integers and floats are kept distinct so counter values round-trip
    exactly; [to_string] output parses back structurally equal. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line form.  NaN and infinities print as [null]. *)

val to_string_pretty : t -> string
(** Two-space indented form with a trailing newline, for artifacts that
    live in version control. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val parse_opt : string -> t option

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val members : t -> (string * t) list
(** Object members; [[]] on non-objects. *)

val to_float_opt : t -> float option
(** Numeric value as float ([Int] widens). *)
