(* Reference DES key schedule: PC-1 and PC-2 as one-bit-at-a-time
   gathers over int64, then each 48-bit subkey packed into the
   [Des_kernel] round-word layout (6-bit chunks for S1/S3/S5/S7 at
   shifts 26/18/10/2 of the even word, S2/S4/S6/S8 in the odd word).
   The tables are transcribed here, not borrowed from the kernel, so a
   typo in one cannot hide in both.  test/test_crypto.ml pins the
   table-driven schedule to this one word for word. *)

let pc1_table =
  [| 57; 49; 41; 33; 25; 17;  9;  1; 58; 50; 42; 34; 26; 18;
     10;  2; 59; 51; 43; 35; 27; 19; 11;  3; 60; 52; 44; 36;
     63; 55; 47; 39; 31; 23; 15;  7; 62; 54; 46; 38; 30; 22;
     14;  6; 61; 53; 45; 37; 29; 21; 13;  5; 28; 20; 12;  4 |]

let pc2_table =
  [| 14; 17; 11; 24;  1;  5;  3; 28; 15;  6; 21; 10;
     23; 19; 12;  4; 26;  8; 16;  7; 27; 20; 13;  2;
     41; 52; 31; 37; 47; 55; 30; 40; 51; 45; 33; 48;
     44; 49; 39; 56; 34; 53; 46; 42; 50; 36; 29; 32 |]

let key_shifts = [| 1; 1; 2; 2; 2; 2; 2; 2; 1; 2; 2; 2; 2; 2; 2; 1 |]

let permute (v : int64) ~width table =
  let out = ref 0L in
  let n = Array.length table in
  for i = 0 to n - 1 do
    let src = table.(i) in
    let bit = Int64.logand (Int64.shift_right_logical v (width - src)) 1L in
    out := Int64.logor (Int64.shift_left !out 1) bit
  done;
  !out

let schedule (key : string) : int array * int array =
  if String.length key <> 8 then invalid_arg "Des: key must be 8 bytes";
  let k64 = ref 0L in
  String.iter
    (fun c -> k64 := Int64.logor (Int64.shift_left !k64 8) (Int64.of_int (Char.code c)))
    key;
  let k56 = permute !k64 ~width:64 pc1_table in
  let c = ref (Int64.to_int (Int64.shift_right_logical k56 28)) in
  let d = ref (Int64.to_int (Int64.logand k56 0xfffffffL)) in
  let rot28 v n = ((v lsl n) lor (v lsr (28 - n))) land 0xfffffff in
  let ke = Array.make 32 0 in
  for round = 0 to 15 do
    let n = key_shifts.(round) in
    c := rot28 !c n;
    d := rot28 !d n;
    let cd = Int64.logor (Int64.shift_left (Int64.of_int !c) 28) (Int64.of_int !d) in
    let sk = permute cd ~width:56 pc2_table in
    let chunk j = Int64.to_int (Int64.shift_right_logical sk (42 - (6 * j))) land 0x3f in
    ke.(2 * round) <-
      (chunk 0 lsl 26) lor (chunk 2 lsl 18) lor (chunk 4 lsl 10) lor (chunk 6 lsl 2);
    ke.((2 * round) + 1) <-
      (chunk 1 lsl 26) lor (chunk 3 lsl 18) lor (chunk 5 lsl 10) lor (chunk 7 lsl 2)
  done;
  let kd = Array.make 32 0 in
  for round = 0 to 15 do
    kd.(2 * round) <- ke.(2 * (15 - round));
    kd.((2 * round) + 1) <- ke.((2 * (15 - round)) + 1)
  done;
  (ke, kd)
