(* SHA-1 (FIPS PUB 180, "SHS" in the paper's reference list).

   The paper lists SHS as a candidate for both the key-derivation hash H and
   the MAC hash; we provide it so the algorithm-identification field of the
   FBS header has a real second suite to select.

   Compression runs entirely on the native [int] — the same untagged
   deferred-masking style as [Md5] and [Des_kernel] — because an [int32]
   pipeline boxes every intermediate without flambda.  The schedule
   expansion is interleaved into the round steps (step i also fills
   w[i+16]) so its independent xor/rotate work hides behind the serial
   a→e dependency chain instead of running as a second sequential loop.
   The pre-rewrite Int32 implementation is retained verbatim as
   [Fbsr_oracles.Sha1_ref], the oracle the differential battery in
   test/test_crypto.ml pins this kernel to. *)

let digest_size = 20
let block_size = 64
let name = "sha1"

type ctx = {
  mutable h0 : int; (* chaining words, 32-bit values in native ints *)
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int64; (* bytes processed *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xefcdab89;
    h2 = 0x98badcfe;
    h3 = 0x10325476;
    h4 = 0xc3d2e1f0;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0L;
  }

(* Independent snapshot of a streaming context: the midstate cache
   resumes MAC computations from a copy, leaving the original pristine. *)
let copy t = { t with buf = Bytes.copy t.buf }

let mask = 0xFFFFFFFF

(* Message-schedule and final-state scratch, one per domain (shard
   domains MAC concurrently; see the note in md5.ml).  [sw] holds the
   80-word schedule, every entry stored masked; [sst] receives the
   post-round state instead of a returned tuple (which would box). *)
type scratch = { sw : int array; sst : int array }

let scratch =
  Fbsr_util.Domain_shim.local_make (fun () ->
      { sw = Array.make 80 0; sst = Array.make 5 0 })

(* One round = four five-step iterations; the (a, b, c, d, e) rotation is
   static renaming, so after five steps the names line up again and the
   state lives in function arguments (registers), not refs.  Step i also
   expands w[i+16] = rotl1(w[i+13] ^ w[i+8] ^ w[i+2] ^ w[i]) — those
   loads/stores have no dependency on the round state, so they execute
   in the shadow of the serial chain; the fill runs through w[75], and
   w[76..79] are finished at the round-3/round-4 boundary.

   Masking discipline: each step's new word is masked once at
   production, so the two values a rotate ever sees — the fresh word
   (rotl5 next step, rotl30 a step later) and a schedule entry — are
   always exact, and the [lsr] halves cannot smear garbage downward.
   The rotl30 *outputs* are deliberately left unmasked (bits 32..61
   carry garbage): they only ever flow through the bitwise fs and
   upward-carrying additions, where the low 32 bits stay exact, and
   are re-masked when [compress] folds the final state.  One mask per
   step instead of the two a mask-before-rotate scheme costs. *)
let rec round1 w st i a b c d e =
  if i = 20 then round2 w st 20 a b c d e
  else begin
    let x =
      Array.unsafe_get w (i + 13) lxor Array.unsafe_get w (i + 8)
      lxor Array.unsafe_get w (i + 2) lxor Array.unsafe_get w i
    in
    Array.unsafe_set w (i + 16) (((x lsl 1) lor (x lsr 31)) land mask);
    let e =
      (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e
      + 0x5a827999 + Array.unsafe_get w i)
      land mask
    in
    let b = (b lsl 30) lor (b lsr 2) in
    let x =
      Array.unsafe_get w (i + 14) lxor Array.unsafe_get w (i + 9)
      lxor Array.unsafe_get w (i + 3) lxor Array.unsafe_get w (i + 1)
    in
    Array.unsafe_set w (i + 17) (((x lsl 1) lor (x lsr 31)) land mask);
    let d =
      (((e lsl 5) lor (e lsr 27)) + ((a land b) lor (lnot a land c)) + d
      + 0x5a827999 + Array.unsafe_get w (i + 1))
      land mask
    in
    let a = (a lsl 30) lor (a lsr 2) in
    let x =
      Array.unsafe_get w (i + 15) lxor Array.unsafe_get w (i + 10)
      lxor Array.unsafe_get w (i + 4) lxor Array.unsafe_get w (i + 2)
    in
    Array.unsafe_set w (i + 18) (((x lsl 1) lor (x lsr 31)) land mask);
    let c =
      (((d lsl 5) lor (d lsr 27)) + ((e land a) lor (lnot e land b)) + c
      + 0x5a827999 + Array.unsafe_get w (i + 2))
      land mask
    in
    let e = (e lsl 30) lor (e lsr 2) in
    let x =
      Array.unsafe_get w (i + 16) lxor Array.unsafe_get w (i + 11)
      lxor Array.unsafe_get w (i + 5) lxor Array.unsafe_get w (i + 3)
    in
    Array.unsafe_set w (i + 19) (((x lsl 1) lor (x lsr 31)) land mask);
    let b =
      (((c lsl 5) lor (c lsr 27)) + ((d land e) lor (lnot d land a)) + b
      + 0x5a827999 + Array.unsafe_get w (i + 3))
      land mask
    in
    let d = (d lsl 30) lor (d lsr 2) in
    let x =
      Array.unsafe_get w (i + 17) lxor Array.unsafe_get w (i + 12)
      lxor Array.unsafe_get w (i + 6) lxor Array.unsafe_get w (i + 4)
    in
    Array.unsafe_set w (i + 20) (((x lsl 1) lor (x lsr 31)) land mask);
    let a =
      (((b lsl 5) lor (b lsr 27)) + ((c land d) lor (lnot c land e)) + a
      + 0x5a827999 + Array.unsafe_get w (i + 4))
      land mask
    in
    let c = (c lsl 30) lor (c lsr 2) in
    round1 w st (i + 5) a b c d e
  end

and round2 w st i a b c d e =
  if i = 40 then round3 w st 40 a b c d e
  else begin
    let x =
      Array.unsafe_get w (i + 13) lxor Array.unsafe_get w (i + 8)
      lxor Array.unsafe_get w (i + 2) lxor Array.unsafe_get w i
    in
    Array.unsafe_set w (i + 16) (((x lsl 1) lor (x lsr 31)) land mask);
    let e =
      (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ed9eba1
      + Array.unsafe_get w i)
      land mask
    in
    let b = (b lsl 30) lor (b lsr 2) in
    let x =
      Array.unsafe_get w (i + 14) lxor Array.unsafe_get w (i + 9)
      lxor Array.unsafe_get w (i + 3) lxor Array.unsafe_get w (i + 1)
    in
    Array.unsafe_set w (i + 17) (((x lsl 1) lor (x lsr 31)) land mask);
    let d =
      (((e lsl 5) lor (e lsr 27)) + (a lxor b lxor c) + d + 0x6ed9eba1
      + Array.unsafe_get w (i + 1))
      land mask
    in
    let a = (a lsl 30) lor (a lsr 2) in
    let x =
      Array.unsafe_get w (i + 15) lxor Array.unsafe_get w (i + 10)
      lxor Array.unsafe_get w (i + 4) lxor Array.unsafe_get w (i + 2)
    in
    Array.unsafe_set w (i + 18) (((x lsl 1) lor (x lsr 31)) land mask);
    let c =
      (((d lsl 5) lor (d lsr 27)) + (e lxor a lxor b) + c + 0x6ed9eba1
      + Array.unsafe_get w (i + 2))
      land mask
    in
    let e = (e lsl 30) lor (e lsr 2) in
    let x =
      Array.unsafe_get w (i + 16) lxor Array.unsafe_get w (i + 11)
      lxor Array.unsafe_get w (i + 5) lxor Array.unsafe_get w (i + 3)
    in
    Array.unsafe_set w (i + 19) (((x lsl 1) lor (x lsr 31)) land mask);
    let b =
      (((c lsl 5) lor (c lsr 27)) + (d lxor e lxor a) + b + 0x6ed9eba1
      + Array.unsafe_get w (i + 3))
      land mask
    in
    let d = (d lsl 30) lor (d lsr 2) in
    let x =
      Array.unsafe_get w (i + 17) lxor Array.unsafe_get w (i + 12)
      lxor Array.unsafe_get w (i + 6) lxor Array.unsafe_get w (i + 4)
    in
    Array.unsafe_set w (i + 20) (((x lsl 1) lor (x lsr 31)) land mask);
    let a =
      (((b lsl 5) lor (b lsr 27)) + (c lxor d lxor e) + a + 0x6ed9eba1
      + Array.unsafe_get w (i + 4))
      land mask
    in
    let c = (c lsl 30) lor (c lsr 2) in
    round2 w st (i + 5) a b c d e
  end

and round3 w st i a b c d e =
  if i = 60 then begin
    (* w76..w79: the interleaved fill above stops at w75 (step 59 wrote
       w[59+16]); finish the schedule before the expansion-free round 4. *)
    for j = 76 to 79 do
      let x =
        Array.unsafe_get w (j - 3) lxor Array.unsafe_get w (j - 8)
        lxor Array.unsafe_get w (j - 14) lxor Array.unsafe_get w (j - 16)
      in
      Array.unsafe_set w j (((x lsl 1) lor (x lsr 31)) land mask)
    done;
    round4 w st 60 a b c d e
  end
  else begin
    let x =
      Array.unsafe_get w (i + 13) lxor Array.unsafe_get w (i + 8)
      lxor Array.unsafe_get w (i + 2) lxor Array.unsafe_get w i
    in
    Array.unsafe_set w (i + 16) (((x lsl 1) lor (x lsr 31)) land mask);
    let e =
      (((a lsl 5) lor (a lsr 27))
      + ((b land c) lor (b land d) lor (c land d))
      + e + 0x8f1bbcdc + Array.unsafe_get w i)
      land mask
    in
    let b = (b lsl 30) lor (b lsr 2) in
    let x =
      Array.unsafe_get w (i + 14) lxor Array.unsafe_get w (i + 9)
      lxor Array.unsafe_get w (i + 3) lxor Array.unsafe_get w (i + 1)
    in
    Array.unsafe_set w (i + 17) (((x lsl 1) lor (x lsr 31)) land mask);
    let d =
      (((e lsl 5) lor (e lsr 27))
      + ((a land b) lor (a land c) lor (b land c))
      + d + 0x8f1bbcdc + Array.unsafe_get w (i + 1))
      land mask
    in
    let a = (a lsl 30) lor (a lsr 2) in
    let x =
      Array.unsafe_get w (i + 15) lxor Array.unsafe_get w (i + 10)
      lxor Array.unsafe_get w (i + 4) lxor Array.unsafe_get w (i + 2)
    in
    Array.unsafe_set w (i + 18) (((x lsl 1) lor (x lsr 31)) land mask);
    let c =
      (((d lsl 5) lor (d lsr 27))
      + ((e land a) lor (e land b) lor (a land b))
      + c + 0x8f1bbcdc + Array.unsafe_get w (i + 2))
      land mask
    in
    let e = (e lsl 30) lor (e lsr 2) in
    let x =
      Array.unsafe_get w (i + 16) lxor Array.unsafe_get w (i + 11)
      lxor Array.unsafe_get w (i + 5) lxor Array.unsafe_get w (i + 3)
    in
    Array.unsafe_set w (i + 19) (((x lsl 1) lor (x lsr 31)) land mask);
    let b =
      (((c lsl 5) lor (c lsr 27))
      + ((d land e) lor (d land a) lor (e land a))
      + b + 0x8f1bbcdc + Array.unsafe_get w (i + 3))
      land mask
    in
    let d = (d lsl 30) lor (d lsr 2) in
    let x =
      Array.unsafe_get w (i + 17) lxor Array.unsafe_get w (i + 12)
      lxor Array.unsafe_get w (i + 6) lxor Array.unsafe_get w (i + 4)
    in
    Array.unsafe_set w (i + 20) (((x lsl 1) lor (x lsr 31)) land mask);
    let a =
      (((b lsl 5) lor (b lsr 27))
      + ((c land d) lor (c land e) lor (d land e))
      + a + 0x8f1bbcdc + Array.unsafe_get w (i + 4))
      land mask
    in
    let c = (c lsl 30) lor (c lsr 2) in
    round3 w st (i + 5) a b c d e
  end

and round4 w st i a b c d e =
  if i = 80 then begin
    Array.unsafe_set st 0 a;
    Array.unsafe_set st 1 b;
    Array.unsafe_set st 2 c;
    Array.unsafe_set st 3 d;
    Array.unsafe_set st 4 e
  end
  else begin
    let e =
      (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xca62c1d6
      + Array.unsafe_get w i)
      land mask
    in
    let b = (b lsl 30) lor (b lsr 2) in
    let d =
      (((e lsl 5) lor (e lsr 27)) + (a lxor b lxor c) + d + 0xca62c1d6
      + Array.unsafe_get w (i + 1))
      land mask
    in
    let a = (a lsl 30) lor (a lsr 2) in
    let c =
      (((d lsl 5) lor (d lsr 27)) + (e lxor a lxor b) + c + 0xca62c1d6
      + Array.unsafe_get w (i + 2))
      land mask
    in
    let e = (e lsl 30) lor (e lsr 2) in
    let b =
      (((c lsl 5) lor (c lsr 27)) + (d lxor e lxor a) + b + 0xca62c1d6
      + Array.unsafe_get w (i + 3))
      land mask
    in
    let d = (d lsl 30) lor (d lsr 2) in
    let a =
      (((b lsl 5) lor (b lsr 27)) + (c lxor d lxor e) + a + 0xca62c1d6
      + Array.unsafe_get w (i + 4))
      land mask
    in
    let c = (c lsl 30) lor (c lsr 2) in
    round4 w st (i + 5) a b c d e
  end

let compress ctx (block : string) off =
  let { sw = w; sst = st } = Fbsr_util.Domain_shim.local_get scratch in
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (String.get_int32_be block (off + (4 * i))) land mask)
  done;
  round1 w st 0 ctx.h0 ctx.h1 ctx.h2 ctx.h3 ctx.h4;
  ctx.h0 <- (ctx.h0 + Array.unsafe_get st 0) land mask;
  ctx.h1 <- (ctx.h1 + Array.unsafe_get st 1) land mask;
  ctx.h2 <- (ctx.h2 + Array.unsafe_get st 2) land mask;
  ctx.h3 <- (ctx.h3 + Array.unsafe_get st 3) land mask;
  ctx.h4 <- (ctx.h4 + Array.unsafe_get st 4) land mask

let feed ctx s pos len =
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref pos and len = ref len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (block_size - ctx.buf_len) in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.buf_len = block_size then begin
      compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks compress straight from the source — no blit. *)
  while !len >= block_size do
    compress ctx s !pos;
    pos := !pos + block_size;
    len := !len - block_size
  done;
  if !len > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let update ctx s = feed ctx s 0 (String.length s)

let feed_slice ctx (s : Fbsr_util.Slice.t) =
  feed ctx s.Fbsr_util.Slice.base s.Fbsr_util.Slice.off s.Fbsr_util.Slice.len

let word_out_be b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (24 - (8 * i))) land 0xff))
  done

let final ctx =
  let bit_len = Int64.mul ctx.total 8L in
  let pad_len =
    let rem = Int64.to_int (Int64.rem ctx.total 64L) in
    if rem < 56 then 56 - rem else 120 - rem
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical bit_len (56 - (8 * i))) land 0xff))
  done;
  (* Careful: feeding the pad updates [total], but [bit_len] is captured. *)
  update ctx (Bytes.unsafe_to_string pad);
  assert (ctx.buf_len = 0);
  let out = Bytes.create digest_size in
  word_out_be out 0 ctx.h0;
  word_out_be out 4 ctx.h1;
  word_out_be out 8 ctx.h2;
  word_out_be out 12 ctx.h3;
  word_out_be out 16 ctx.h4;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  final ctx

let hexdigest s = Fbsr_util.Hex.encode (digest s)
