(* The Internet checksum (RFC 1071): one's-complement sum of 16-bit words.
   Used by the simulated IPv4, UDP and TCP codecs.

   [sum] adds 32-bit words in the host's byte order, two per 64-bit load,
   and folds the carries once at the end (RFC 1071 §2: carries may be
   deferred, and the sum is independent of byte order up to a final
   swap).  The result equals the 16-bit network-order sum with the
   carries folded after each step: both are the same residue mod 0xffff,
   and both are zero only when every byte and [acc] are. *)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external get64u : string -> int -> int64 = "%caml_string_get64u"

let fold a =
  let a = ref a in
  while !a lsr 16 <> 0 do
    a := (!a land 0xffff) + (!a lsr 16)
  done;
  !a

(* The two 32-bit halves of a 64-bit load, added as unsigned ints. *)
let[@inline] halves x =
  (Int64.to_int x land 0xffffffff) + Int64.to_int (Int64.shift_right_logical x 32)

let sum ?(acc = 0) s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Inet_checksum.sum";
  let stop = pos + len in
  let stop16 = pos + (len land lnot 15) in
  let w = ref 0 and i = ref pos in
  while !i < stop16 do
    w := !w + halves (get64u s !i) + halves (get64u s (!i + 8));
    i := !i + 16
  done;
  if stop - !i >= 8 then begin
    w := !w + halves (get64u s !i);
    i := !i + 8
  end;
  if stop - !i >= 4 then begin
    w := !w + (Int32.to_int (get32u s !i) land 0xffffffff);
    i := !i + 4
  end;
  (* Into network order: on a little-endian host each 16-bit word was
     summed byte-swapped, and a swap of the folded sum undoes it. *)
  let w = fold !w in
  let w = if Sys.big_endian then w else ((w land 0xff) lsl 8) lor (w lsr 8) in
  let i = !i in
  let w =
    if stop - i >= 2 then
      w + ((Char.code (String.unsafe_get s i) lsl 8) lor Char.code (String.unsafe_get s (i + 1)))
    else w
  in
  let w = if (stop - i) land 1 = 1 then w + (Char.code (String.unsafe_get s (stop - 1)) lsl 8) else w in
  fold (acc + w)

let finish acc = lnot acc land 0xffff

let string s = finish (sum s 0 (String.length s))

