(* The fast DES kernel: table-driven, unboxed, shared by [Des], [Des3],
   [Mac] and [Fused].  Replaces the generic per-round bit-gather of the
   seed implementation ([Fbsr_oracles.Des_ref], retained as the
   differential-testing oracle) with the classic software-DES layout:

   - The E expansion is folded into the SP-table indexing.  A 32-bit round
     input [r] is rotated twice (right 1 for the odd S-boxes, left 3 for
     the even ones) so that each 6-bit E-group lands on a fixed shift
     (26/18/10/2) of one of the two rotated words; the per-round work is
     then two rotates, two subkey XORs and eight table lookups — no
     48-iteration permute.
   - Each SP table entry is the S-box output already pushed through the P
     permutation, so the round function is a pure OR of eight lookups.
   - IP and FP are byte-indexed: one precomputed table row per (input
     byte position, byte value), ORed over the eight input bytes — 16
     lookups per permutation instead of 64 single-bit gathers.
   - Everything runs on untagged native [int]s holding 32-bit halves; the
     only [Int64]s left are in the one-time key-schedule derivation.

   A block lives in a caller-provided 2-element scratch array [io]
   (io.(0) = high/left word, io.(1) = low/right word), so the mode loops
   in [Des]/[Des3] allocate nothing per block.  [rounds] maps the post-IP
   halves to the FIPS "preoutput" (R16, L16) — feeding its output straight
   back into [rounds] is exactly the FP-then-IP cancellation EDE3 needs,
   which is how [Des3] runs three passes with a single IP/FP pair.

   Subkey layout: two words per round.  Word [2i] carries the 6-bit
   subkey chunks for S1/S3/S5/S7 at shifts 26/18/10/2 (matching the
   rotate-right-1 word), word [2i+1] the chunks for S2/S4/S6/S8
   (matching rotate-left-3). *)

(* --- FIPS tables (1-based source bit positions, MSB first) --- *)

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

(* Generic bit gather over int64, used only at table-construction and
   key-schedule time (never per block). *)
let permute (v : int64) ~width table =
  let out = ref 0L in
  let n = Array.length table in
  for i = 0 to n - 1 do
    let src = table.(i) in
    let bit = Int64.logand (Int64.shift_right_logical v (width - src)) 1L in
    out := Int64.logor (Int64.shift_left !out 1) bit
  done;
  !out

(* SP tables, one flat 64-entry int array per S-box: entry [six] is the
   P-permuted S-box output for the 6-bit E-group value [six] (row = bits
   1 and 6, column = bits 2-5, FIPS numbering). *)
let sp_table box =
  Array.init 64 (fun six ->
      let row = ((six lsr 4) land 2) lor (six land 1) in
      let col = (six lsr 1) land 0xf in
      let s = sboxes.(box).((row * 16) + col) in
      let word = Int64.of_int (s lsl (28 - (4 * box))) in
      Int64.to_int (permute word ~width:32 p_table))

let sp1 = sp_table 0
let sp2 = sp_table 1
let sp3 = sp_table 2
let sp4 = sp_table 3
let sp5 = sp_table 4
let sp6 = sp_table 5
let sp7 = sp_table 6
let sp8 = sp_table 7

(* Byte-indexed tables for a 64->64 permutation: row [p*256 + v] is the
   contribution of input byte [p] holding value [v] to the high (resp.
   low) 32-bit output word; a permutation is then the OR of eight rows
   per word.  Built once from the FIPS table by scattering each input
   bit to its output position. *)
let byte_tables table =
  let hi = Array.make (8 * 256) 0 and lo = Array.make (8 * 256) 0 in
  for i = 0 to 63 do
    let s = table.(i) - 1 in
    let p = s / 8 and bit = 7 - (s mod 8) in
    let out = if i < 32 then hi else lo in
    let mask = 1 lsl (if i < 32 then 31 - i else 63 - i) in
    for v = 0 to 255 do
      if (v lsr bit) land 1 = 1 then begin
        let idx = (p * 256) + v in
        out.(idx) <- out.(idx) lor mask
      end
    done
  done;
  (hi, lo)

let ip_hi, ip_lo = byte_tables ip_table
let fp_hi, fp_lo = byte_tables fp_table

(* OR of the eight byte rows of [tab] selected by the bytes of (hi, lo). *)
let[@inline] gather (tab : int array) hi lo =
  Array.unsafe_get tab ((hi lsr 24) land 0xff)
  lor Array.unsafe_get tab (256 + ((hi lsr 16) land 0xff))
  lor Array.unsafe_get tab (512 + ((hi lsr 8) land 0xff))
  lor Array.unsafe_get tab (768 + (hi land 0xff))
  lor Array.unsafe_get tab (1024 + ((lo lsr 24) land 0xff))
  lor Array.unsafe_get tab (1280 + ((lo lsr 16) land 0xff))
  lor Array.unsafe_get tab (1536 + ((lo lsr 8) land 0xff))
  lor Array.unsafe_get tab (1792 + (lo land 0xff))

let ip (io : int array) =
  let hi = Array.unsafe_get io 0 and lo = Array.unsafe_get io 1 in
  Array.unsafe_set io 0 (gather ip_hi hi lo);
  Array.unsafe_set io 1 (gather ip_lo hi lo)

let fp (io : int array) =
  let hi = Array.unsafe_get io 0 and lo = Array.unsafe_get io 1 in
  Array.unsafe_set io 0 (gather fp_hi hi lo);
  Array.unsafe_set io 1 (gather fp_lo hi lo)

(* The round function.  [r] is the 32-bit round input; [ka] covers the odd
   S-boxes (S1/S3/S5/S7, aligned with r rotated right by 1), [kb] the even
   ones (S2/S4/S6/S8, aligned with r rotated left by 3).  Each E-group
   sits at a fixed 6-bit field (shifts 26/18/10/2) of the rotated word. *)
let[@inline] feistel r ka kb =
  let a = (((r lsr 1) lor (r lsl 31)) land 0xffffffff) lxor ka in
  let b = (((r lsl 3) lor (r lsr 29)) land 0xffffffff) lxor kb in
  Array.unsafe_get sp1 ((a lsr 26) land 0x3f)
  lor Array.unsafe_get sp3 ((a lsr 18) land 0x3f)
  lor Array.unsafe_get sp5 ((a lsr 10) land 0x3f)
  lor Array.unsafe_get sp7 ((a lsr 2) land 0x3f)
  lor Array.unsafe_get sp2 ((b lsr 26) land 0x3f)
  lor Array.unsafe_get sp4 ((b lsr 18) land 0x3f)
  lor Array.unsafe_get sp6 ((b lsr 10) land 0x3f)
  lor Array.unsafe_get sp8 ((b lsr 2) land 0x3f)

(* The sixteen rounds, fully unrolled, two per step with the half-swap
   folded into the alternation (no per-round shuffle).  Input: io holds
   the post-IP halves (L0, R0); output: io holds the FIPS preoutput
   (R16, L16).  Because FP and IP are inverses, feeding the output of one
   [rounds] call directly into another composes complete DES passes with
   the interior FP/IP pairs cancelled — the EDE3 fast path. *)
let rounds (ks : int array) (io : int array) =
  let k i = Array.unsafe_get ks i in
  let l = Array.unsafe_get io 0 and r = Array.unsafe_get io 1 in
  let l = l lxor feistel r (k 0) (k 1) in
  let r = r lxor feistel l (k 2) (k 3) in
  let l = l lxor feistel r (k 4) (k 5) in
  let r = r lxor feistel l (k 6) (k 7) in
  let l = l lxor feistel r (k 8) (k 9) in
  let r = r lxor feistel l (k 10) (k 11) in
  let l = l lxor feistel r (k 12) (k 13) in
  let r = r lxor feistel l (k 14) (k 15) in
  let l = l lxor feistel r (k 16) (k 17) in
  let r = r lxor feistel l (k 18) (k 19) in
  let l = l lxor feistel r (k 20) (k 21) in
  let r = r lxor feistel l (k 22) (k 23) in
  let l = l lxor feistel r (k 24) (k 25) in
  let r = r lxor feistel l (k 26) (k 27) in
  let l = l lxor feistel r (k 28) (k 29) in
  let r = r lxor feistel l (k 30) (k 31) in
  Array.unsafe_set io 0 r;
  Array.unsafe_set io 1 l

(* Key schedule: PC-1/PC-2 via the generic gather (once per key — the
   engine caches the result per flow), then each 48-bit subkey packed
   into the two round words at the feistel shifts. *)
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

(* Big-endian 32-bit loads/stores for the mode loops, via the stdlib's
   word-at-a-time primitives (one load/store plus a byte swap; the
   intermediate [int32] never escapes the expression, so it stays
   unboxed even without flambda).  [Int32.to_int] sign-extends, hence
   the mask on the load. *)
let[@inline] read32 (s : string) pos =
  Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

let[@inline] write32 (b : Bytes.t) pos v =
  Bytes.set_int32_be b pos (Int32.of_int v)
