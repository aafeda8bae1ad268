(* Reference DES: the original generic bit-gather implementation, retained
   verbatim (minus the incremental/zero-copy entry points) when the fast
   table-driven kernel replaced it in [Des].

   Purpose: differential testing.  This module's structure is a direct
   transliteration of the FIPS 46 description — every permutation is
   applied bit by bit from the published tables — so it is easy to audit
   and hard to get subtly wrong.  The fast kernel in [Des_kernel] must
   agree with it on every key, block, mode and length; test/test_crypto.ml
   enforces that over randomized inputs.  Nothing on a hot path may call
   this module. *)

let key_size = 8

(* --- FIPS tables (entries are 1-based source bit positions, MSB first) --- *)

let ip_table =
  [| 58; 50; 42; 34; 26; 18; 10; 2; 60; 52; 44; 36; 28; 20; 12; 4;
     62; 54; 46; 38; 30; 22; 14; 6; 64; 56; 48; 40; 32; 24; 16; 8;
     57; 49; 41; 33; 25; 17;  9; 1; 59; 51; 43; 35; 27; 19; 11; 3;
     61; 53; 45; 37; 29; 21; 13; 5; 63; 55; 47; 39; 31; 23; 15; 7 |]

let fp_table =
  [| 40; 8; 48; 16; 56; 24; 64; 32; 39; 7; 47; 15; 55; 23; 63; 31;
     38; 6; 46; 14; 54; 22; 62; 30; 37; 5; 45; 13; 53; 21; 61; 29;
     36; 4; 44; 12; 52; 20; 60; 28; 35; 3; 43; 11; 51; 19; 59; 27;
     34; 2; 42; 10; 50; 18; 58; 26; 33; 1; 41;  9; 49; 17; 57; 25 |]

let e_table =
  [| 32;  1;  2;  3;  4;  5;  4;  5;  6;  7;  8;  9;
      8;  9; 10; 11; 12; 13; 12; 13; 14; 15; 16; 17;
     16; 17; 18; 19; 20; 21; 20; 21; 22; 23; 24; 25;
     24; 25; 26; 27; 28; 29; 28; 29; 30; 31; 32;  1 |]

let p_table =
  [| 16;  7; 20; 21; 29; 12; 28; 17;  1; 15; 23; 26;  5; 18; 31; 10;
      2;  8; 24; 14; 32; 27;  3;  9; 19; 13; 30;  6; 22; 11;  4; 25 |]

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

let sboxes =
  [| (* S1 *)
     [| 14;  4; 13;  1;  2; 15; 11;  8;  3; 10;  6; 12;  5;  9;  0;  7;
         0; 15;  7;  4; 14;  2; 13;  1; 10;  6; 12; 11;  9;  5;  3;  8;
         4;  1; 14;  8; 13;  6;  2; 11; 15; 12;  9;  7;  3; 10;  5;  0;
        15; 12;  8;  2;  4;  9;  1;  7;  5; 11;  3; 14; 10;  0;  6; 13 |];
     (* S2 *)
     [| 15;  1;  8; 14;  6; 11;  3;  4;  9;  7;  2; 13; 12;  0;  5; 10;
         3; 13;  4;  7; 15;  2;  8; 14; 12;  0;  1; 10;  6;  9; 11;  5;
         0; 14;  7; 11; 10;  4; 13;  1;  5;  8; 12;  6;  9;  3;  2; 15;
        13;  8; 10;  1;  3; 15;  4;  2; 11;  6;  7; 12;  0;  5; 14;  9 |];
     (* S3 *)
     [| 10;  0;  9; 14;  6;  3; 15;  5;  1; 13; 12;  7; 11;  4;  2;  8;
        13;  7;  0;  9;  3;  4;  6; 10;  2;  8;  5; 14; 12; 11; 15;  1;
        13;  6;  4;  9;  8; 15;  3;  0; 11;  1;  2; 12;  5; 10; 14;  7;
         1; 10; 13;  0;  6;  9;  8;  7;  4; 15; 14;  3; 11;  5;  2; 12 |];
     (* S4 *)
     [|  7; 13; 14;  3;  0;  6;  9; 10;  1;  2;  8;  5; 11; 12;  4; 15;
        13;  8; 11;  5;  6; 15;  0;  3;  4;  7;  2; 12;  1; 10; 14;  9;
        10;  6;  9;  0; 12; 11;  7; 13; 15;  1;  3; 14;  5;  2;  8;  4;
         3; 15;  0;  6; 10;  1; 13;  8;  9;  4;  5; 11; 12;  7;  2; 14 |];
     (* S5 *)
     [|  2; 12;  4;  1;  7; 10; 11;  6;  8;  5;  3; 15; 13;  0; 14;  9;
        14; 11;  2; 12;  4;  7; 13;  1;  5;  0; 15; 10;  3;  9;  8;  6;
         4;  2;  1; 11; 10; 13;  7;  8; 15;  9; 12;  5;  6;  3;  0; 14;
        11;  8; 12;  7;  1; 14;  2; 13;  6; 15;  0;  9; 10;  4;  5;  3 |];
     (* S6 *)
     [| 12;  1; 10; 15;  9;  2;  6;  8;  0; 13;  3;  4; 14;  7;  5; 11;
        10; 15;  4;  2;  7; 12;  9;  5;  6;  1; 13; 14;  0; 11;  3;  8;
         9; 14; 15;  5;  2;  8; 12;  3;  7;  0;  4; 10;  1; 13; 11;  6;
         4;  3;  2; 12;  9;  5; 15; 10; 11; 14;  1;  7;  6;  0;  8; 13 |];
     (* S7 *)
     [|  4; 11;  2; 14; 15;  0;  8; 13;  3; 12;  9;  7;  5; 10;  6;  1;
        13;  0; 11;  7;  4;  9;  1; 10; 14;  3;  5; 12;  2; 15;  8;  6;
         1;  4; 11; 13; 12;  3;  7; 14; 10; 15;  6;  8;  0;  5;  9;  2;
         6; 11; 13;  8;  1;  4; 10;  7;  9;  5;  0; 15; 14;  2;  3; 12 |];
     (* S8 *)
     [| 13;  2;  8;  4;  6; 15; 11;  1; 10;  9;  3; 14;  5;  0; 12;  7;
         1; 15; 13;  8; 10;  3;  7;  4; 12;  5;  6; 11;  0; 14;  9;  2;
         7; 11;  4;  1;  9; 12; 14;  2;  0;  6; 10; 13; 15;  3;  5;  8;
         2;  1; 14;  7;  4; 10;  8; 13; 15; 12;  9;  0;  3;  5;  6; 11 |] |]

(* Generic bit gather: source value is [width] bits wide, bit 1 = MSB. *)
let permute (v : int64) ~width table =
  let out = ref 0L in
  let n = Array.length table in
  for i = 0 to n - 1 do
    let src = table.(i) in
    let bit = Int64.logand (Int64.shift_right_logical v (width - src)) 1L in
    out := Int64.logor (Int64.shift_left !out 1) bit
  done;
  !out

(* SP tables: S-box output already pushed through the P permutation, one
   32-bit word per (box, 6-bit input). *)
let sp_tables =
  lazy
    (Array.init 8 (fun box ->
         Array.init 64 (fun six ->
             let row = ((six lsr 4) land 2) lor (six land 1) in
             let col = (six lsr 1) land 0xf in
             let s = sboxes.(box).((row * 16) + col) in
             (* Place the 4-bit output at its position in the 32-bit word. *)
             let word = Int64.of_int (s lsl (28 - (4 * box))) in
             Int64.to_int (permute word ~width:32 p_table))))

(* Key schedule: sixteen 48-bit subkeys as int64. *)
let key_schedule (key : string) : int64 array =
  if String.length key <> key_size then invalid_arg "Des_ref: key must be 8 bytes";
  let k64 = ref 0L in
  String.iter
    (fun c -> k64 := Int64.logor (Int64.shift_left !k64 8) (Int64.of_int (Char.code c)))
    key;
  let k56 = permute !k64 ~width:64 pc1_table in
  let c = ref (Int64.to_int (Int64.shift_right_logical k56 28)) in
  let d = ref (Int64.to_int (Int64.logand k56 0xfffffffL)) in
  let rot28 v n = ((v lsl n) lor (v lsr (28 - n))) land 0xfffffff in
  Array.init 16 (fun round ->
      let n = key_shifts.(round) in
      c := rot28 !c n;
      d := rot28 !d n;
      let cd = Int64.logor (Int64.shift_left (Int64.of_int !c) 28) (Int64.of_int !d) in
      permute cd ~width:56 pc2_table)

type key = { subkeys : int64 array }

let of_string key = { subkeys = key_schedule key }

(* The round function, on native ints for speed: r and the return value are
   32-bit values stored in an int. *)
let feistel sp (r : int) (subkey : int64) : int =
  let er = permute (Int64.of_int r) ~width:32 e_table in
  let x = Int64.logxor er subkey in
  let out = ref 0 in
  for box = 0 to 7 do
    let six = Int64.to_int (Int64.shift_right_logical x (42 - (6 * box))) land 0x3f in
    out := !out lor sp.(box).(six)
  done;
  !out

let crypt_block key ~decrypt (block : int64) : int64 =
  let sp = Lazy.force sp_tables in
  let v = permute block ~width:64 ip_table in
  let l = ref (Int64.to_int (Int64.shift_right_logical v 32)) in
  let r = ref (Int64.to_int (Int64.logand v 0xffffffffL)) in
  for round = 0 to 15 do
    let k = if decrypt then key.subkeys.(15 - round) else key.subkeys.(round) in
    let nl = !r in
    let nr = !l lxor feistel sp !r k in
    l := nl;
    r := nr
  done;
  (* Final swap then FP. *)
  let pre = Int64.logor (Int64.shift_left (Int64.of_int !r) 32) (Int64.of_int !l) in
  permute pre ~width:64 fp_table

let block_of_string s off =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let block_to_bytes b off (v : int64) =
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (56 - (8 * i))) land 0xff))
  done

let encrypt_block key pt = crypt_block key ~decrypt:false pt
let decrypt_block key ct = crypt_block key ~decrypt:true ct

(* --- CBC (FIPS 81), as the seed kernel implemented it --- *)

let pad s =
  let n = String.length s in
  let padding = 8 - (n mod 8) in
  s ^ String.make padding (Char.chr padding)

let unpad s =
  let n = String.length s in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des_ref.unpad: bad length";
  let padding = Char.code s.[n - 1] in
  if padding < 1 || padding > 8 || padding > n then
    invalid_arg "Des_ref.unpad: corrupt padding";
  for i = n - padding to n - 1 do
    if Char.code s.[i] <> padding then invalid_arg "Des_ref.unpad: corrupt padding"
  done;
  String.sub s 0 (n - padding)

let check_iv iv =
  if String.length iv <> 8 then invalid_arg "Des_ref: IV must be 8 bytes";
  block_of_string iv 0

let encrypt_cbc ~iv key pt =
  let data = pad pt in
  let n = String.length data / 8 in
  let out = Bytes.create (n * 8) in
  let prev = ref (check_iv iv) in
  for i = 0 to n - 1 do
    let b = Int64.logxor (block_of_string data (i * 8)) !prev in
    let c = encrypt_block key b in
    block_to_bytes out (i * 8) c;
    prev := c
  done;
  Bytes.unsafe_to_string out

let decrypt_cbc ~iv key ct =
  let n = String.length ct in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des_ref.decrypt_cbc: bad length";
  let out = Bytes.create n in
  let prev = ref (check_iv iv) in
  for i = 0 to (n / 8) - 1 do
    let c = block_of_string ct (i * 8) in
    let p = Int64.logxor (decrypt_block key c) !prev in
    block_to_bytes out (i * 8) p;
    prev := c
  done;
  unpad (Bytes.unsafe_to_string out)
