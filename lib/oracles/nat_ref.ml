(* Bignum reference routines: the pre-Algorithm-D [Nat.divmod] and the
   byte-at-a-time codecs, kept as the differential oracle for the
   production kernels.  Everything here goes through [Nat]'s add, sub,
   shifts and comparisons only, so a fault in the division or codec
   kernels cannot leak into the oracle.  test/test_bignum.ml pins the
   kernels to this module at real key sizes. *)

open Fbsr_bignum

(* Binary long division: shift in one dividend bit, subtract when the
   running remainder reaches the divisor. *)
let divmod a b =
  if Nat.is_zero b then raise Division_by_zero;
  if Nat.compare a b < 0 then (Nat.zero, a)
  else begin
    let q = ref Nat.zero and r = ref Nat.zero in
    for i = Nat.bit_length a - 1 downto 0 do
      r := Nat.shift_left !r 1;
      if Nat.testbit a i then r := Nat.add !r Nat.one;
      q := Nat.shift_left !q 1;
      if Nat.compare !r b >= 0 then begin
        r := Nat.sub !r b;
        q := Nat.add !q Nat.one
      end
    done;
    (!q, !r)
  end

let rem a b = snd (divmod a b)

let of_bytes_be s =
  let acc = ref Nat.zero in
  String.iter (fun c -> acc := Nat.add (Nat.shift_left !acc 8) (Nat.of_int (Char.code c))) s;
  !acc

let to_bytes_be ?length a =
  let nbytes = (Nat.bit_length a + 7) / 8 in
  let width =
    match length with
    | None -> max nbytes 1
    | Some w ->
        if w < nbytes then invalid_arg "Nat.to_bytes_be: value too wide";
        w
  in
  let out = Bytes.make width '\000' in
  let byte_mod = Nat.of_int 256 in
  let rec fill v i =
    if not (Nat.is_zero v) && i >= 0 then begin
      let byte = Option.get (Nat.to_int_opt (rem v byte_mod)) in
      Bytes.set out i (Char.chr byte);
      fill (Nat.shift_right v 8) (i - 1)
    end
  in
  fill a (width - 1);
  Bytes.unsafe_to_string out

let mod_pow base e m =
  let result = ref (rem Nat.one m) in
  for i = Nat.bit_length e - 1 downto 0 do
    result := rem (Nat.mul !result !result) m;
    if Nat.testbit e i then result := rem (Nat.mul !result base) m
  done;
  !result
