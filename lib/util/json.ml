(* Minimal JSON: just enough for the observability layer's machine-readable
   artifacts (Metrics/Span serialization, BENCH_*.json emit and diff).

   Deliberately dependency-free: the repo's toolchain does not bake in a
   JSON library, and the subset we need — objects, arrays, strings, bools,
   null, and numbers split into exact integers vs floats — fits in a page.
   Printing is canonical enough that [parse (to_string j)] round-trips
   structurally: integers print without a decimal point, floats with %.17g
   (exact double round-trip), and object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no nan/inf. *)
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          print_to buf item)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          print_to buf v)
        members;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  print_to buf j;
  Buffer.contents buf

(* Pretty printer with two-space indentation, for artifacts a human will
   also read (BENCH_*.json lives in version control). *)
let to_string_pretty j =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as atom -> print_to buf atom
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            escape_to buf k;
            Buffer.add_string buf ": ";
            go (indent + 2) v)
          members;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent)                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.text && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string_body cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> advance cur; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance cur; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance cur; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.text then fail cur "bad \\u escape";
            let hex = String.sub cur.text cur.pos 4 in
            cur.pos <- cur.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail cur "bad \\u escape"
            | Some code ->
                (* Only the Latin-1 subset is emitted by our printer; decode
                   the rest as UTF-8 for completeness. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end);
            go ()
        | _ -> fail cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') ->
        advance cur;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.text start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        (* An integer too wide for OCaml's int: keep it as a float. *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string_body cur)
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value cur :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              go ()
          | Some ']' -> advance cur
          | _ -> fail cur "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec go () =
          skip_ws cur;
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          members := (k, v) :: !members;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              go ()
          | Some '}' -> advance cur
          | _ -> fail cur "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !members)
      end
  | Some c -> fail cur (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let cur = { text = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let parse_opt s = match parse s with v -> Some v | exception Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Accessors (for bench_diff and tests)                                *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let members = function Obj m -> m | _ -> []
