(* Key fingerprints: xorshift-multiply mixing on OCaml's 63-bit ints.

   [x lxor (x lsr r)] (r > 0) and multiplication by an odd constant are
   both invertible modulo 2^63, so [mix] is a bijection and so is every
   step of [string] for fixed input bytes.  The multipliers are the
   SplitMix64 finaliser's, shifted into 62 bits and made odd. *)

let mix h =
  let h = (h lxor (h lsr 31)) * 0x2fd611db47393971 in
  let h = (h lxor (h lsr 27)) * 0x25341275c4cc447b in
  h lxor (h lsr 31)

(* The top bit lands on bit 62: two values collide only if they differ
   in both parts and the mixed low parts differ by exactly that bit. *)
let int64 v =
  mix (Int64.to_int v) lxor (Int64.to_int (Int64.shift_right_logical v 63) lsl 62)

(* The seven bytes from [i] as a 56-bit int, the first in the low
   bits on a little-endian machine: eight are read, native-endian and
   unboxed, and the one past the seventh is dropped.  The byte order
   only moves where a collision falls. *)
external get64 : string -> int -> int64 = "%caml_string_get64"

let word s i =
  if Sys.big_endian then Int64.to_int (Int64.shift_right_logical (get64 s i) 8)
  else Int64.to_int (get64 s i) land 0xff_ffff_ffff_ffff

(* Whole 7-byte words while eight bytes remain readable, then the at
   most seven trailing bytes as one word.  The length enters first, so
   strings that differ only by trailing zero bytes differ. *)
let rec words s n h i =
  if i + 8 <= n then
    words s n (mix (h lxor word s i)) (i + 7)
  else tail s n h i 0 0

and tail s n h i w shift =
  if i < n then
    tail s n h (i + 1) (w lor (Char.code (String.unsafe_get s i) lsl shift)) (shift + 8)
  else if shift = 0 then h
  else mix (h lxor w)

let string ~seed s =
  let n = String.length s in
  words s n (mix (seed lxor n)) 0
