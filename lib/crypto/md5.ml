(* MD5 message digest (RFC 1321).

   The paper's implementation uses keyed MD5 (via CryptoLib) for the FBS MAC
   and as the flow-key derivation hash H.  This is a from-scratch streaming
   implementation; the round constants are computed from the sine definition
   in the RFC rather than transcribed, eliminating table-typo risk. *)

let digest_size = 16
let block_size = 64
let name = "md5"

(* K[i] = floor(2^32 * |sin(i+1)|), i = 0..63.  Held as native ints: the
   whole compression runs on the native [int] with arithmetic masked to
   32 bits, which keeps every word immediate (an [int32] pipeline boxes
   each intermediate without flambda and costs ~3x). *)
let k_table =
  Array.init 64 (fun i ->
      let v = abs_float (sin (float_of_int (i + 1))) *. 4294967296.0 in
      int_of_float v)

type ctx = {
  mutable a : int; (* chaining words, 32-bit values in native ints *)
  mutable b : int;
  mutable c : int;
  mutable d : int;
  buf : Bytes.t; (* partial block; [final] pads in it *)
  mutable buf_len : int;
  mutable total : int; (* bytes processed *)
}

let init () =
  {
    a = 0x67452301;
    b = 0xefcdab89;
    c = 0x98badcfe;
    d = 0x10325476;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
  }

(* Independent snapshot of a streaming context: the midstate cache
   resumes MAC computations from a copy, leaving the original pristine. *)
let copy t = { t with buf = Bytes.copy t.buf }

let mask = 0xFFFFFFFF

(* Message-schedule and round-state scratch.  [compress] runs to
   completion before returning, so one scratch per *domain* is safe —
   module-global scratch would race when shard domains MAC concurrently,
   so each domain lazily gets its own pair (a plain cell on 4.14).  The
   round state lands in [sst] instead of a returned tuple (which would
   box); both arrays are threaded through the quad chain as arguments so
   the domain-local lookup happens once per block. *)
type scratch = { sm : int array; sst : int array }

let scratch =
  Fbsr_util.Domain_shim.local_make (fun () ->
      { sm = Array.make 16 0; sst = Array.make 4 0 })

(* One round = four quad iterations; each quad is four steps with the
   (a, b, c, d) rotation as static renaming, shift counts as literals,
   and the state carried in function arguments so it lives in registers
   (a [ref] pipeline pays a store-to-load forward on the serial chain
   every step).

   Masking is deferred: the state words carry garbage above bit 31
   between steps.  That is sound because [land]/[lor]/[lxor]/[lnot]
   are bitwise and addition only carries upward, so the low 32 bits of
   every expression here are always exact; the one operation that
   would smear high bits downward — the [lsr] half of the rotate — is
   fed the explicitly masked [s0..s3].  The final state is masked once
   in [compress].  This takes two serial ops per step off the
   dependency chain, which is the whole cost of MD5. *)
let rec quad1 m st i a b c d =
  if i = 16 then quad2 m st 16 a b c d
  else begin
    let k = k_table in
    let s0 =
      (a + ((b land c) lor (lnot b land d))
      + Array.unsafe_get k i + Array.unsafe_get m i)
      land mask
    in
    let a = b + ((s0 lsl 7) lor (s0 lsr 25)) in
    let s1 =
      (d + ((a land b) lor (lnot a land c))
      + Array.unsafe_get k (i + 1) + Array.unsafe_get m (i + 1))
      land mask
    in
    let d = a + ((s1 lsl 12) lor (s1 lsr 20)) in
    let s2 =
      (c + ((d land a) lor (lnot d land b))
      + Array.unsafe_get k (i + 2) + Array.unsafe_get m (i + 2))
      land mask
    in
    let c = d + ((s2 lsl 17) lor (s2 lsr 15)) in
    let s3 =
      (b + ((c land d) lor (lnot c land a))
      + Array.unsafe_get k (i + 3) + Array.unsafe_get m (i + 3))
      land mask
    in
    let b = c + ((s3 lsl 22) lor (s3 lsr 10)) in
    quad1 m st (i + 4) a b c d
  end

and quad2 m st i a b c d =
  if i = 32 then quad3 m st 32 a b c d
  else begin
    let k = k_table in
    let g = ((5 * i) + 1) land 15 in
    let s0 =
      (a + ((d land b) lor (lnot d land c))
      + Array.unsafe_get k i + Array.unsafe_get m g)
      land mask
    in
    let a = b + ((s0 lsl 5) lor (s0 lsr 27)) in
    let s1 =
      (d + ((c land a) lor (lnot c land b))
      + Array.unsafe_get k (i + 1) + Array.unsafe_get m ((g + 5) land 15))
      land mask
    in
    let d = a + ((s1 lsl 9) lor (s1 lsr 23)) in
    let s2 =
      (c + ((b land d) lor (lnot b land a))
      + Array.unsafe_get k (i + 2) + Array.unsafe_get m ((g + 10) land 15))
      land mask
    in
    let c = d + ((s2 lsl 14) lor (s2 lsr 18)) in
    let s3 =
      (b + ((a land c) lor (lnot a land d))
      + Array.unsafe_get k (i + 3) + Array.unsafe_get m ((g + 15) land 15))
      land mask
    in
    let b = c + ((s3 lsl 20) lor (s3 lsr 12)) in
    quad2 m st (i + 4) a b c d
  end

and quad3 m st i a b c d =
  if i = 48 then quad4 m st 48 a b c d
  else begin
    let k = k_table in
    let g = ((3 * i) + 5) land 15 in
    let s0 =
      (a + (b lxor c lxor d)
      + Array.unsafe_get k i + Array.unsafe_get m g)
      land mask
    in
    let a = b + ((s0 lsl 4) lor (s0 lsr 28)) in
    let s1 =
      (d + (a lxor b lxor c)
      + Array.unsafe_get k (i + 1) + Array.unsafe_get m ((g + 3) land 15))
      land mask
    in
    let d = a + ((s1 lsl 11) lor (s1 lsr 21)) in
    let s2 =
      (c + (d lxor a lxor b)
      + Array.unsafe_get k (i + 2) + Array.unsafe_get m ((g + 6) land 15))
      land mask
    in
    let c = d + ((s2 lsl 16) lor (s2 lsr 16)) in
    let s3 =
      (b + (c lxor d lxor a)
      + Array.unsafe_get k (i + 3) + Array.unsafe_get m ((g + 9) land 15))
      land mask
    in
    let b = c + ((s3 lsl 23) lor (s3 lsr 9)) in
    quad3 m st (i + 4) a b c d
  end

and quad4 m st i a b c d =
  if i = 64 then begin
    Array.unsafe_set st 0 a;
    Array.unsafe_set st 1 b;
    Array.unsafe_set st 2 c;
    Array.unsafe_set st 3 d
  end
  else begin
    let k = k_table in
    let g = 7 * i land 15 in
    let s0 =
      (a + (c lxor (b lor lnot d))
      + Array.unsafe_get k i + Array.unsafe_get m g)
      land mask
    in
    let a = b + ((s0 lsl 6) lor (s0 lsr 26)) in
    let s1 =
      (d + (b lxor (a lor lnot c))
      + Array.unsafe_get k (i + 1) + Array.unsafe_get m ((g + 7) land 15))
      land mask
    in
    let d = a + ((s1 lsl 10) lor (s1 lsr 22)) in
    let s2 =
      (c + (a lxor (d lor lnot b))
      + Array.unsafe_get k (i + 2) + Array.unsafe_get m ((g + 14) land 15))
      land mask
    in
    let c = d + ((s2 lsl 15) lor (s2 lsr 17)) in
    let s3 =
      (b + (d lxor (c lor lnot a))
      + Array.unsafe_get k (i + 3) + Array.unsafe_get m ((g + 21) land 15))
      land mask
    in
    let b = c + ((s3 lsl 21) lor (s3 lsr 11)) in
    quad4 m st (i + 4) a b c d
  end

let compress ctx (block : string) off =
  let { sm = m; sst = st } = Fbsr_util.Domain_shim.local_get scratch in
  for i = 0 to 15 do
    Array.unsafe_set m i
      (Int32.to_int (String.get_int32_le block (off + (4 * i))) land mask)
  done;
  quad1 m st 0 ctx.a ctx.b ctx.c ctx.d;
  ctx.a <- (ctx.a + Array.unsafe_get st 0) land mask;
  ctx.b <- (ctx.b + Array.unsafe_get st 1) land mask;
  ctx.c <- (ctx.c + Array.unsafe_get st 2) land mask;
  ctx.d <- (ctx.d + Array.unsafe_get st 3) land mask

let feed ctx s pos len =
  ctx.total <- ctx.total + len;
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

let word_out b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(* Padding: 0x80, zeros, the 8-byte little-endian bit length, written
   into the block buffer behind the buffered bytes; a tail too long to
   leave room for the length takes one more block.  Nothing is
   allocated but the digest. *)
let final ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (block_size - n - 1) '\000';
    compress ctx (Bytes.unsafe_to_string buf) 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  let bit_len = ctx.total lsl 3 in
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * i)) land 0xff))
  done;
  compress ctx (Bytes.unsafe_to_string buf) 0;
  ctx.buf_len <- 0;
  let out = Bytes.create digest_size in
  word_out out 0 ctx.a;
  word_out out 4 ctx.b;
  word_out out 8 ctx.c;
  word_out out 12 ctx.d;
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
