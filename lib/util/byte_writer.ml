(* A growable big-endian byte writer used by all the wire codecs. *)

type t = { mutable buf : Bytes.t; mutable len : int }

let create ?(capacity = 64) () =
  { buf = Bytes.create (max 1 capacity); len = 0 }

let length t = t.len

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.buf then begin
    let cap = ref (Bytes.length t.buf) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end

let u8 t v =
  ensure t 1;
  Bytes.set t.buf t.len (Char.chr (v land 0xff));
  t.len <- t.len + 1

let u16 t v =
  ensure t 2;
  Bytes.set t.buf t.len (Char.chr ((v lsr 8) land 0xff));
  Bytes.set t.buf (t.len + 1) (Char.chr (v land 0xff));
  t.len <- t.len + 2

let u32 t v =
  ensure t 4;
  Bytes.set t.buf t.len (Char.chr ((Int32.to_int (Int32.shift_right_logical v 24)) land 0xff));
  Bytes.set t.buf (t.len + 1) (Char.chr ((Int32.to_int (Int32.shift_right_logical v 16)) land 0xff));
  Bytes.set t.buf (t.len + 2) (Char.chr ((Int32.to_int (Int32.shift_right_logical v 8)) land 0xff));
  Bytes.set t.buf (t.len + 3) (Char.chr (Int32.to_int (Int32.logand v 0xffl)));
  t.len <- t.len + 4

let u32_int t v = u32 t (Int32.of_int (v land 0xffffffff))

let u64 t v =
  ensure t 8;
  for i = 0 to 7 do
    let shift = 56 - (8 * i) in
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical v shift) 0xffL) in
    Bytes.set t.buf (t.len + i) (Char.chr byte)
  done;
  t.len <- t.len + 8

let bytes t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let substring t s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Byte_writer.substring: out of bounds";
  ensure t len;
  Bytes.blit_string s pos t.buf t.len len;
  t.len <- t.len + len

let reserve t n =
  if n < 0 then invalid_arg "Byte_writer.reserve: negative length";
  ensure t n;
  let pos = t.len in
  t.len <- t.len + n;
  (t.buf, pos)

let contents t = Bytes.sub_string t.buf 0 t.len

let finalize t =
  let s =
    if t.len = Bytes.length t.buf then begin
      let s = Bytes.unsafe_to_string t.buf in
      (* Detach the buffer so later writes cannot mutate the returned
         string through the alias. *)
      t.buf <- Bytes.create 1;
      s
    end
    else contents t
  in
  t.len <- 0;
  s
