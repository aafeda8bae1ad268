(* The fast DES kernel: table-driven, unboxed, shared by [Des] and
   [Fused].  Replaces the generic per-round bit-gather of the
   seed implementation ([Fbsr_oracles.Des_ref], retained as the
   differential-testing oracle) with a software-DES layout shaped for
   latency: CBC encryption is one serial chain of rounds, so what counts
   is the length of a round's dependency chain, not its operation count.

   - Shifted-doubled halves.  A 32-bit half [x] is carried as
     [x' = (x lor (x lsl 32)) lsr 1]: bits 0..30 hold x's bits 1..31 and
     bits 31..61 hold x's bits 0..30.  Its low 32 bits are [x] rotated
     right by 1, and bits 28..59 are [x] rotated left by 3, the two
     rotations that line the E-expansion's 6-bit groups up at fixed
     shifts.  So a round needs no rotate at all: the odd S-boxes read
     [r' lxor ka] at shifts 26/18/10/2 and the even ones
     [r' lxor (kb lsl 28)] at 54/46/38/30, where the subkey shift
     depends only on the schedule and stays off the chain.  The form is
     bitwise linear, so XOR keeps it: IP emits it, the SP entries are
     stored in it, and FP reads it back ([x' lsr 30] is [x] rotated left
     by 1, which the FP tables absorb).
   - One SP table.  Entry [64 * box + six] is S-box [box]'s output for
     the 6-bit group [six], pushed through P and doubled, so a round is
     two XORs, eight masked lookups into one 512-entry table, and a
     three-level OR tree.
   - IP and FP are byte-indexed: one precomputed table row per (input
     byte position, byte value), ORed over the eight input bytes.
   - Everything runs on untagged native [int]s; the only [Int64]s left
     are in the module-init table construction.

   The drivers keep blocks in locals.  [cbc_encrypt] carries the CBC
   chain in IP space (IP is linear, and IP undoes the FP that produced
   the previous ciphertext block), so the chain itself never passes
   through a permutation; [cbc_encrypt2] runs two such chains, from two
   datagrams, side by side; [cbc_encrypt_md5] runs one beside MD5's
   compression, the one-pass seal; and [cbc_decrypt] runs two
   independent blocks per iteration.  The array-based [ip]/[rounds]/[fp]
   serve the other modes ([crypt], [crypt_inv]): [rounds] maps the
   post-IP halves to the FIPS preoutput (R16, L16).

   Subkey layout: two words per round.  Word [2i] carries the 6-bit
   subkey chunks for S1/S3/S5/S7 at shifts 26/18/10/2, word [2i+1] the
   chunks for S2/S4/S6/S8 at the same shifts (the round lifts it by
   28).  A key has this one encrypt-order schedule: decryption
   ([rounds_inv], [crypt_inv], [cbc_decrypt]) walks it from round 15
   down, with the offsets reversed in the unrolled code, so a cached key
   holds 32 words and decrypting costs what encrypting does. *)

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

(* Generic bit gather over int64, used only at table-construction time
   (never per block or per key). *)
let permute (v : int64) ~width table =
  let out = ref 0L in
  let n = Array.length table in
  for i = 0 to n - 1 do
    let src = table.(i) in
    let bit = Int64.logand (Int64.shift_right_logical v (width - src)) 1L in
    out := Int64.logor (Int64.shift_left !out 1) bit
  done;
  !out

(* The shifted-doubled form of a 32-bit word (see the header). *)
let dbl x = (x lor (x lsl 32)) lsr 1

(* The SP table: entry [64 * box + six] is the P-permuted, doubled
   output of S-box [box] for the 6-bit E-group value [six] (row = bits
   1 and 6, column = bits 2-5, FIPS numbering). *)
let sp =
  Array.init 512 (fun i ->
      let box = i lsr 6 and six = i land 0x3f in
      let row = ((six lsr 4) land 2) lor (six land 1) in
      let col = (six lsr 1) land 0xf in
      let s = sboxes.(box).((row * 16) + col) in
      let word = Int64.of_int (s lsl (28 - (4 * box))) in
      dbl (Int64.to_int (permute word ~width:32 p_table)))

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

(* IP emits doubled halves. *)
let ip_hi, ip_lo =
  let hi, lo = byte_tables ip_table in
  (Array.map dbl hi, Array.map dbl lo)

(* FP reads [x' lsr 30], each half rotated left by 1: FIPS source bit
   [s] of a half sits one position further left, the half's first bit
   wrapping to its last. *)
let fp_hi, fp_lo =
  byte_tables
    (Array.map (fun s -> if (s - 1) mod 32 = 0 then s + 31 else s - 1) fp_table)

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

(* FP of the doubled preoutput halves (x', y'): the high and low output
   words. *)
let[@inline] fp_word tab x y = gather tab (x lsr 30) (y lsr 30)

(* One Feistel round: [l] XOR f([r], round [o]'s subkey words), all in
   doubled form.  The lookups are ORed as a tree so the chain from [r]
   to the result is one XOR, a shift and mask, a load and three ORs. *)
let[@inline] round (ks : int array) o l r =
  let a = r lxor Array.unsafe_get ks o
  and b = r lxor (Array.unsafe_get ks (o + 1) lsl 28) in
  let odd =
    (Array.unsafe_get sp ((a lsr 26) land 0x3f)
    lor Array.unsafe_get sp (128 + ((a lsr 18) land 0x3f)))
    lor (Array.unsafe_get sp (256 + ((a lsr 10) land 0x3f))
        lor Array.unsafe_get sp (384 + ((a lsr 2) land 0x3f)))
  and even =
    (Array.unsafe_get sp (64 + ((b lsr 54) land 0x3f))
    lor Array.unsafe_get sp (192 + ((b lsr 46) land 0x3f)))
    lor (Array.unsafe_get sp (320 + ((b lsr 38) land 0x3f))
        lor Array.unsafe_get sp (448 + ((b lsr 30) land 0x3f)))
  in
  l lxor (odd lor even)

let ip (io : int array) =
  let hi = Array.unsafe_get io 0 and lo = Array.unsafe_get io 1 in
  Array.unsafe_set io 0 (gather ip_hi hi lo);
  Array.unsafe_set io 1 (gather ip_lo hi lo)

let fp (io : int array) =
  let x = Array.unsafe_get io 0 and y = Array.unsafe_get io 1 in
  Array.unsafe_set io 0 (fp_word fp_hi x y);
  Array.unsafe_set io 1 (fp_word fp_lo x y)

(* The sixteen rounds, unrolled with let-shadowing (two per line, the
   half-swap folded into the alternation).  Input: io holds the post-IP
   halves (L0, R0); output: the FIPS preoutput (R16, L16). *)
let rounds (ks : int array) (io : int array) =
  let l = Array.unsafe_get io 0 and r = Array.unsafe_get io 1 in
  let l = round ks 0 l r in let r = round ks 2 r l in
  let l = round ks 4 l r in let r = round ks 6 r l in
  let l = round ks 8 l r in let r = round ks 10 r l in
  let l = round ks 12 l r in let r = round ks 14 r l in
  let l = round ks 16 l r in let r = round ks 18 r l in
  let l = round ks 20 l r in let r = round ks 22 r l in
  let l = round ks 24 l r in let r = round ks 26 r l in
  let l = round ks 28 l r in let r = round ks 30 r l in
  Array.unsafe_set io 0 r;
  Array.unsafe_set io 1 l

(* The inverse of [rounds] under the same schedule: the sixteen rounds
   with the subkeys taken from round 15 down, which is DES decryption.
   Only the offsets differ, so it costs what [rounds] costs. *)
let rounds_inv (ks : int array) (io : int array) =
  let l = Array.unsafe_get io 0 and r = Array.unsafe_get io 1 in
  let l = round ks 30 l r in let r = round ks 28 r l in
  let l = round ks 26 l r in let r = round ks 24 r l in
  let l = round ks 22 l r in let r = round ks 20 r l in
  let l = round ks 18 l r in let r = round ks 16 r l in
  let l = round ks 14 l r in let r = round ks 12 r l in
  let l = round ks 10 l r in let r = round ks 8 r l in
  let l = round ks 6 l r in let r = round ks 4 r l in
  let l = round ks 2 l r in let r = round ks 0 r l in
  Array.unsafe_set io 0 r;
  Array.unsafe_set io 1 l

let crypt ks io =
  ip io;
  rounds ks io;
  fp io

let crypt_inv ks io =
  ip io;
  rounds_inv ks io;
  fp io

(* Big-endian 32-bit loads/stores for the mode loops, via the stdlib's
   word-at-a-time primitives (one load/store plus a byte swap; the
   intermediate [int32] never escapes the expression, so it stays
   unboxed even without flambda).  [Int32.to_int] sign-extends, hence
   the mask on the load. *)
let[@inline] read32 (s : string) pos =
  Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

let[@inline] write32 (b : Bytes.t) pos v =
  Bytes.set_int32_be b pos (Int32.of_int v)

(* CBC encryption of [n] whole blocks, chaining from the ciphertext
   block in [chain] and leaving the last one there.  The chain runs in
   IP space: IP(p xor c) = IP(p) xor IP(c), and IP(c) for a block this
   loop produced is its preoutput, so the next block starts from the
   preoutput XOR IP(p) and only the output store pays for FP. *)
let cbc_encrypt (ks : int array) (chain : int array) src src_pos n dst dst_pos =
  if n > 0 then begin
    let ch = Array.unsafe_get chain 0 and cl = Array.unsafe_get chain 1 in
    let cx = ref (gather ip_hi ch cl) and cy = ref (gather ip_lo ch cl) in
    for i = 0 to n - 1 do
      let si = src_pos + (i * 8) and di = dst_pos + (i * 8) in
      let h = read32 src si and lo = read32 src (si + 4) in
      let l = !cx lxor gather ip_hi h lo and r = !cy lxor gather ip_lo h lo in
      let l = round ks 0 l r in let r = round ks 2 r l in
      let l = round ks 4 l r in let r = round ks 6 r l in
      let l = round ks 8 l r in let r = round ks 10 r l in
      let l = round ks 12 l r in let r = round ks 14 r l in
      let l = round ks 16 l r in let r = round ks 18 r l in
      let l = round ks 20 l r in let r = round ks 22 r l in
      let l = round ks 24 l r in let r = round ks 26 r l in
      let l = round ks 28 l r in let r = round ks 30 r l in
      cx := r;
      cy := l;
      write32 dst di (fp_word fp_hi r l);
      write32 dst (di + 4) (fp_word fp_lo r l)
    done;
    Array.unsafe_set chain 0 (fp_word fp_hi !cx !cy);
    Array.unsafe_set chain 1 (fp_word fp_lo !cx !cy)
  end

(* Two independent CBC encryptions in one loop: chain [a] encrypts [na]
   whole blocks at [sa]/[pa] into [da]/[qa] under [ka], chain [b] [nb]
   blocks at [sb]/[pb] into [db]/[qb] under [kb].  Each block of a chain
   depends on the one before, so one chain leaves most of the core's
   issue slots idle waiting on table loads; a second chain's round fills
   them.  Both chains advance block for block while both have blocks
   left, then the longer one finishes on [cbc_encrypt]. *)
let cbc_encrypt2 (ka : int array) (cha : int array) sa pa da qa na
    (kb : int array) (chb : int array) sb pb db qb nb =
  let n = if na < nb then na else nb in
  if n > 0 then begin
    let h = Array.unsafe_get cha 0 and lo = Array.unsafe_get cha 1 in
    let ax = ref (gather ip_hi h lo) and ay = ref (gather ip_lo h lo) in
    let h = Array.unsafe_get chb 0 and lo = Array.unsafe_get chb 1 in
    let bx = ref (gather ip_hi h lo) and by = ref (gather ip_lo h lo) in
    for i = 0 to n - 1 do
      let o = i * 8 in
      let h1 = read32 sa (pa + o) and lo1 = read32 sa (pa + o + 4) in
      let h2 = read32 sb (pb + o) and lo2 = read32 sb (pb + o + 4) in
      let l1 = !ax lxor gather ip_hi h1 lo1 and r1 = !ay lxor gather ip_lo h1 lo1 in
      let l2 = !bx lxor gather ip_hi h2 lo2 and r2 = !by lxor gather ip_lo h2 lo2 in
      let l1 = round ka 0 l1 r1 and l2 = round kb 0 l2 r2 in
      let r1 = round ka 2 r1 l1 and r2 = round kb 2 r2 l2 in
      let l1 = round ka 4 l1 r1 and l2 = round kb 4 l2 r2 in
      let r1 = round ka 6 r1 l1 and r2 = round kb 6 r2 l2 in
      let l1 = round ka 8 l1 r1 and l2 = round kb 8 l2 r2 in
      let r1 = round ka 10 r1 l1 and r2 = round kb 10 r2 l2 in
      let l1 = round ka 12 l1 r1 and l2 = round kb 12 l2 r2 in
      let r1 = round ka 14 r1 l1 and r2 = round kb 14 r2 l2 in
      let l1 = round ka 16 l1 r1 and l2 = round kb 16 l2 r2 in
      let r1 = round ka 18 r1 l1 and r2 = round kb 18 r2 l2 in
      let l1 = round ka 20 l1 r1 and l2 = round kb 20 l2 r2 in
      let r1 = round ka 22 r1 l1 and r2 = round kb 22 r2 l2 in
      let l1 = round ka 24 l1 r1 and l2 = round kb 24 l2 r2 in
      let r1 = round ka 26 r1 l1 and r2 = round kb 26 r2 l2 in
      let l1 = round ka 28 l1 r1 and l2 = round kb 28 l2 r2 in
      let r1 = round ka 30 r1 l1 and r2 = round kb 30 r2 l2 in
      ax := r1;
      ay := l1;
      bx := r2;
      by := l2;
      write32 da (qa + o) (fp_word fp_hi r1 l1);
      write32 da (qa + o + 4) (fp_word fp_lo r1 l1);
      write32 db (qb + o) (fp_word fp_hi r2 l2);
      write32 db (qb + o + 4) (fp_word fp_lo r2 l2)
    done;
    Array.unsafe_set cha 0 (fp_word fp_hi !ax !ay);
    Array.unsafe_set cha 1 (fp_word fp_lo !ax !ay);
    Array.unsafe_set chb 0 (fp_word fp_hi !bx !by);
    Array.unsafe_set chb 1 (fp_word fp_lo !bx !by)
  end;
  let o = n * 8 in
  if na > n then cbc_encrypt ka cha sa (pa + o) (na - n) da (qa + o)
  else if nb > n then cbc_encrypt kb chb sb (pb + o) (nb - n) db (qb + o)

(* The one-pass seal's kernel: a CBC chain with MD5 beside it.  Each of
   the [ncomp] passes compresses one MD5 block while it encrypts four
   DES blocks: every DES block runs as four iterations of four rounds
   plus one MD5 quad, the block's MD5 round being the [j]th, so the
   sixty-four steps land between the sixty-four rounds.  Both are
   serial chains of a few operations each, and neither waits on the
   other: MD5's chain fills the issue slots the CBC chain's table loads
   leave idle.  The steps are [Md5]'s own ([Md5.ff] ... [Md5.ii]), in
   the order [Md5.compress] runs them.

   MD5's block [0] is read from [first] at [first_pos] (the context's
   partial block, completed), block [k > 0] from [rest] at [rest_pos +
   64 (k - 1)]; the chaining words come in and go out through [st].
   The DES side is [cbc_encrypt] of [4 ncomp] blocks, chain in IP space
   and all. *)
let md5_words = Fbsr_util.Domain_shim.local_make (fun () -> Array.make 16 0)

let cbc_encrypt_md5 (ks : int array) (chain : int array) src src_pos dst dst_pos
    (st : int array) first first_pos rest rest_pos ncomp =
  let m = Fbsr_util.Domain_shim.local_get md5_words in
  let ch = Array.unsafe_get chain 0 and cl = Array.unsafe_get chain 1 in
  let cx = ref (gather ip_hi ch cl) and cy = ref (gather ip_lo ch cl) in
  let a = ref (Array.unsafe_get st 0) and b = ref (Array.unsafe_get st 1) in
  let c = ref (Array.unsafe_get st 2) and d = ref (Array.unsafe_get st 3) in
  for n = 0 to ncomp - 1 do
    if n = 0 then Md5.load m first first_pos
    else Md5.load m rest (rest_pos + (64 * (n - 1)));
    let a0 = !a and b0 = !b and c0 = !c and d0 = !d in
    for j = 0 to 3 do
      let si = src_pos + (32 * n) + (8 * j) in
      let h = read32 src si and lo = read32 src (si + 4) in
      let l = ref (!cx lxor gather ip_hi h lo) and r = ref (!cy lxor gather ip_lo h lo) in
      for q = 0 to 3 do
        let o = 8 * q in
        let l' = round ks o !l !r in
        let r' = round ks (o + 2) !r l' in
        let l' = round ks (o + 4) l' r' in
        let r' = round ks (o + 6) r' l' in
        l := l';
        r := r';
        let i = (16 * j) + (4 * q) in
        match j with
        | 0 ->
            let a' = Md5.ff !a !b !c !d (Md5.kx m i i) 7 in
            let d' = Md5.ff !d a' !b !c (Md5.kx m (i + 1) (i + 1)) 12 in
            let c' = Md5.ff !c d' a' !b (Md5.kx m (i + 2) (i + 2)) 17 in
            b := Md5.ff !b c' d' a' (Md5.kx m (i + 3) (i + 3)) 22;
            a := a';
            c := c';
            d := d'
        | 1 ->
            let g = ((5 * i) + 1) land 15 in
            let a' = Md5.gg !a !b !c !d (Md5.kx m i g) 5 in
            let d' = Md5.gg !d a' !b !c (Md5.kx m (i + 1) ((g + 5) land 15)) 9 in
            let c' = Md5.gg !c d' a' !b (Md5.kx m (i + 2) ((g + 10) land 15)) 14 in
            b := Md5.gg !b c' d' a' (Md5.kx m (i + 3) ((g + 15) land 15)) 20;
            a := a';
            c := c';
            d := d'
        | 2 ->
            let g = ((3 * i) + 5) land 15 in
            let a' = Md5.hh !a !b !c !d (Md5.kx m i g) 4 in
            let d' = Md5.hh !d a' !b !c (Md5.kx m (i + 1) ((g + 3) land 15)) 11 in
            let c' = Md5.hh !c d' a' !b (Md5.kx m (i + 2) ((g + 6) land 15)) 16 in
            b := Md5.hh !b c' d' a' (Md5.kx m (i + 3) ((g + 9) land 15)) 23;
            a := a';
            c := c';
            d := d'
        | _ ->
            let g = 7 * i land 15 in
            let a' = Md5.ii !a !b !c !d (Md5.kx m i g) 6 in
            let d' = Md5.ii !d a' !b !c (Md5.kx m (i + 1) ((g + 7) land 15)) 10 in
            let c' = Md5.ii !c d' a' !b (Md5.kx m (i + 2) ((g + 14) land 15)) 15 in
            b := Md5.ii !b c' d' a' (Md5.kx m (i + 3) ((g + 21) land 15)) 21;
            a := a';
            c := c';
            d := d'
      done;
      cx := !r;
      cy := !l;
      let di = dst_pos + (32 * n) + (8 * j) in
      write32 dst di (fp_word fp_hi !r !l);
      write32 dst (di + 4) (fp_word fp_lo !r !l)
    done;
    a := (a0 + !a) land 0xFFFFFFFF;
    b := (b0 + !b) land 0xFFFFFFFF;
    c := (c0 + !c) land 0xFFFFFFFF;
    d := (d0 + !d) land 0xFFFFFFFF
  done;
  Array.unsafe_set st 0 !a;
  Array.unsafe_set st 1 !b;
  Array.unsafe_set st 2 !c;
  Array.unsafe_set st 3 !d;
  Array.unsafe_set chain 0 (fp_word fp_hi !cx !cy);
  Array.unsafe_set chain 1 (fp_word fp_lo !cx !cy)

(* CBC decryption of [n] whole blocks under the encrypt-order schedule
   [ks], walked from round 15 down, chaining from the ciphertext block
   (ivh, ivl).  No block depends on another's plaintext, so two run per
   iteration as independent chains the CPU overlaps; an odd final block
   runs as both chains and is stored once. *)
let cbc_decrypt (ks : int array) ~ivh ~ivl src pos n dst dst_pos =
  let ph = ref ivh and pl = ref ivl in
  let i = ref 0 in
  while !i < n do
    let s1 = pos + (!i * 8) and di = dst_pos + (!i * 8) in
    let pair = !i + 1 < n in
    let s2 = if pair then s1 + 8 else s1 in
    let h1 = read32 src s1 and lo1 = read32 src (s1 + 4) in
    let h2 = read32 src s2 and lo2 = read32 src (s2 + 4) in
    let l1 = gather ip_hi h1 lo1 and r1 = gather ip_lo h1 lo1 in
    let l2 = gather ip_hi h2 lo2 and r2 = gather ip_lo h2 lo2 in
    let l1 = round ks 30 l1 r1 and l2 = round ks 30 l2 r2 in
    let r1 = round ks 28 r1 l1 and r2 = round ks 28 r2 l2 in
    let l1 = round ks 26 l1 r1 and l2 = round ks 26 l2 r2 in
    let r1 = round ks 24 r1 l1 and r2 = round ks 24 r2 l2 in
    let l1 = round ks 22 l1 r1 and l2 = round ks 22 l2 r2 in
    let r1 = round ks 20 r1 l1 and r2 = round ks 20 r2 l2 in
    let l1 = round ks 18 l1 r1 and l2 = round ks 18 l2 r2 in
    let r1 = round ks 16 r1 l1 and r2 = round ks 16 r2 l2 in
    let l1 = round ks 14 l1 r1 and l2 = round ks 14 l2 r2 in
    let r1 = round ks 12 r1 l1 and r2 = round ks 12 r2 l2 in
    let l1 = round ks 10 l1 r1 and l2 = round ks 10 l2 r2 in
    let r1 = round ks 8 r1 l1 and r2 = round ks 8 r2 l2 in
    let l1 = round ks 6 l1 r1 and l2 = round ks 6 l2 r2 in
    let r1 = round ks 4 r1 l1 and r2 = round ks 4 r2 l2 in
    let l1 = round ks 2 l1 r1 and l2 = round ks 2 l2 r2 in
    let r1 = round ks 0 r1 l1 and r2 = round ks 0 r2 l2 in
    write32 dst di (fp_word fp_hi r1 l1 lxor !ph);
    write32 dst (di + 4) (fp_word fp_lo r1 l1 lxor !pl);
    if pair then begin
      write32 dst (di + 8) (fp_word fp_hi r2 l2 lxor h1);
      write32 dst (di + 12) (fp_word fp_lo r2 l2 lxor lo1)
    end;
    ph := h2;
    pl := lo2;
    i := !i + 2
  done

(* Key schedule, table-driven like the data path.  C||D lives in one
   56-bit int (C in bits 55..28, D in 27..0).

   - PC-1 is byte-indexed like IP/FP: row [p*256 + v] is the C||D
     contribution of key byte [p] holding [v] (parity bits never
     appear in PC-1, so they select nothing).
   - PC-2 is chunk-indexed: row [j*128 + v] is what C||D bits
     7j..7j+6 (MSB first) holding [v] contribute to the round's two
     packed subkey words, pre-shifted to the feistel fields.  One row
     carries both words, the odd-S-box word in bits 0..31 and the
     even-S-box word lifted by [kb_lift] (its lowest used bit is 2, so
     the lifted word spans bits 32..61 and never meets the first;
     unpacking masks off the first word's bits 30..31, which the shift
     back down brings into bits 0..1).

   A key costs 8 lookups for PC-1 and 8 per round, against 56 and 48
   single-bit gathers with the generic permute
   ([Fbsr_oracles.Des_sched_ref] keeps that version as the oracle). *)
let kb_lift = 30

let pc1_bytes =
  let t = Array.make (8 * 256) 0 in
  Array.iteri
    (fun i src ->
      let s = src - 1 in
      let p = s / 8 and bit = 7 - (s mod 8) in
      for v = 0 to 255 do
        if (v lsr bit) land 1 = 1 then
          t.((p * 256) + v) <- t.((p * 256) + v) lor (1 lsl (55 - i))
      done)
    pc1_table;
  t

let pc2_chunks =
  let t = Array.make (8 * 128) 0 in
  Array.iteri
    (fun i src ->
      (* subkey bit [i] = C||D bit [src - 1]; it lands in 6-bit chunk
         [i / 6] of the packed words (see the subkey layout above) *)
      let s = src - 1 in
      let j = s / 7 and bit = 6 - (s mod 7) in
      let chunk = i / 6 in
      let pos = 26 - (8 * (chunk lsr 1)) + 5 - (i mod 6) in
      let pos = if chunk land 1 = 0 then pos else pos + kb_lift in
      for v = 0 to 127 do
        if (v lsr bit) land 1 = 1 then
          t.((j * 128) + v) <- t.((j * 128) + v) lor (1 lsl pos)
      done)
    pc2_table;
  t

let schedule (key : string) : int array =
  if String.length key < 8 then invalid_arg "Des: key must be 8 bytes";
  let b i = Char.code (String.unsafe_get key i) in
  let t = pc1_bytes in
  let cd =
    Array.unsafe_get t (b 0)
    lor Array.unsafe_get t (256 + b 1)
    lor Array.unsafe_get t (512 + b 2)
    lor Array.unsafe_get t (768 + b 3)
    lor Array.unsafe_get t (1024 + b 4)
    lor Array.unsafe_get t (1280 + b 5)
    lor Array.unsafe_get t (1536 + b 6)
    lor Array.unsafe_get t (1792 + b 7)
  in
  let c = ref (cd lsr 28) and d = ref (cd land 0xfffffff) in
  let ks = Array.make 32 0 in
  let t = pc2_chunks in
  for round = 0 to 15 do
    let n = Array.unsafe_get key_shifts round in
    c := ((!c lsl n) lor (!c lsr (28 - n))) land 0xfffffff;
    d := ((!d lsl n) lor (!d lsr (28 - n))) land 0xfffffff;
    let cd = (!c lsl 28) lor !d in
    let w =
      Array.unsafe_get t ((cd lsr 49) land 0x7f)
      lor Array.unsafe_get t (128 + ((cd lsr 42) land 0x7f))
      lor Array.unsafe_get t (256 + ((cd lsr 35) land 0x7f))
      lor Array.unsafe_get t (384 + ((cd lsr 28) land 0x7f))
      lor Array.unsafe_get t (512 + ((cd lsr 21) land 0x7f))
      lor Array.unsafe_get t (640 + ((cd lsr 14) land 0x7f))
      lor Array.unsafe_get t (768 + ((cd lsr 7) land 0x7f))
      lor Array.unsafe_get t (896 + (cd land 0x7f))
    in
    let ka = w land 0xffffffff and kb = (w lsr kb_lift) land 0xfffffffc in
    Array.unsafe_set ks (2 * round) ka;
    Array.unsafe_set ks ((2 * round) + 1) kb
  done;
  ks
