(* Hexadecimal encoding and decoding of byte strings. *)

let hex_digits = "0123456789abcdef"

let encode (s : string) : string =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[b lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[b land 0xf]
  done;
  Bytes.unsafe_to_string out

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode (s : string) : string =
  (* Whitespace is tolerated so that test vectors can be written in the
     grouped style used by RFCs and FIPS publications. *)
  let compact = String.concat "" (String.split_on_char ' ' s) in
  let compact = String.concat "" (String.split_on_char '\n' compact) in
  let n = String.length compact in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd-length input";
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = digit_value compact.[2 * i] in
    let lo = digit_value compact.[(2 * i) + 1] in
    Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string out
