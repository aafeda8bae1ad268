(* MD5 message digest (RFC 1321).

   The paper's implementation uses keyed MD5 (via CryptoLib) for the FBS MAC
   and as the flow-key derivation hash H.  This is a from-scratch streaming
   implementation; the round constants are computed from the sine definition
   in the RFC rather than transcribed, eliminating table-typo risk.

   MD5 is one serial chain of 64 steps, so its cost is the length of a
   step's dependency chain: each step adds its boolean function last to
   [a + K[i] + M[g]], formed off the chain, and F and H are written in
   their shortest forms (see [ff]).  The step functions are exported to
   the one-pass seal kernel ([Des_kernel.cbc_encrypt_md5]), which runs
   them beside a DES-CBC chain in the order [compress] does. *)

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
   so each domain lazily gets its own set (a plain cell on 4.14).  The
   round state lands in [sst] instead of a returned tuple (which would
   box); both arrays are threaded through the quad chain as arguments so
   the domain-local lookup happens once per block.  [final] pads into
   [stail]. *)
type scratch = { sm : int array; sst : int array; stail : Bytes.t }

let scratch =
  Fbsr_util.Domain_shim.local_make (fun () ->
      { sm = Array.make 16 0; sst = Array.make 4 0; stail = Bytes.create (2 * block_size) })

(* The four step functions.  A step is [b + ((a + x + f(b, c, d)) <<< s)]
   with [x] = K[i] + M[g]: the state words arrive as [a b c d] in the step's own
   naming and the new [a] is returned, so a caller rotates the roles by
   renaming.

   The step is written for a short dependency chain, which is the whole
   cost of MD5: only [b] (the previous step's result) is late, so
   [a + x] forms off the chain and [f] is added last — one add after [f]
   instead of three for [((a + f) + K) + M].  F is [d lxor (b land (c
   lxor d))] and H is [b lxor (c lxor d)], two and one operations after
   [b] (the textbook forms take three and two).

   Masking is deferred: the state words carry garbage above bit 31
   between steps.  That is sound because [land]/[lor]/[lxor]/[lnot]
   are bitwise and addition only carries upward, so the low 32 bits of
   every expression here are always exact; the one operation that
   would smear high bits downward — the [lsr] half of the rotate — is
   fed the explicitly masked sum.  Callers mask the final state once. *)
let[@inline] ff a b c d x s =
  let t = (a + x + (d lxor (b land (c lxor d)))) land mask in
  b + ((t lsl s) lor (t lsr (32 - s)))

let[@inline] gg a b c d x s =
  let t = (a + x + ((b land d) lor (c land lnot d))) land mask in
  b + ((t lsl s) lor (t lsr (32 - s)))

let[@inline] hh a b c d x s =
  let t = (a + x + (b lxor (c lxor d))) land mask in
  b + ((t lsl s) lor (t lsr (32 - s)))

let[@inline] ii a b c d x s =
  let t = (a + x + (c lxor (b lor lnot d))) land mask in
  b + ((t lsl s) lor (t lsr (32 - s)))

(* [x] of step [i] reading message word [g]. *)
let[@inline] kx (m : int array) i g = Array.unsafe_get k_table i + Array.unsafe_get m g

(* One round = four quad iterations; each quad is four steps with the
   (a, b, c, d) rotation as static renaming, shift counts as literals,
   and the state carried in function arguments so it lives in registers
   (a [ref] pipeline pays a store-to-load forward on the serial chain
   every step). *)
let rec quad1 m st i a b c d =
  if i = 16 then quad2 m st 16 a b c d
  else begin
    let a = ff a b c d (kx m i i) 7 in
    let d = ff d a b c (kx m (i + 1) (i + 1)) 12 in
    let c = ff c d a b (kx m (i + 2) (i + 2)) 17 in
    let b = ff b c d a (kx m (i + 3) (i + 3)) 22 in
    quad1 m st (i + 4) a b c d
  end

and quad2 m st i a b c d =
  if i = 32 then quad3 m st 32 a b c d
  else begin
    let g = ((5 * i) + 1) land 15 in
    let a = gg a b c d (kx m i g) 5 in
    let d = gg d a b c (kx m (i + 1) ((g + 5) land 15)) 9 in
    let c = gg c d a b (kx m (i + 2) ((g + 10) land 15)) 14 in
    let b = gg b c d a (kx m (i + 3) ((g + 15) land 15)) 20 in
    quad2 m st (i + 4) a b c d
  end

and quad3 m st i a b c d =
  if i = 48 then quad4 m st 48 a b c d
  else begin
    let g = ((3 * i) + 5) land 15 in
    let a = hh a b c d (kx m i g) 4 in
    let d = hh d a b c (kx m (i + 1) ((g + 3) land 15)) 11 in
    let c = hh c d a b (kx m (i + 2) ((g + 6) land 15)) 16 in
    let b = hh b c d a (kx m (i + 3) ((g + 9) land 15)) 23 in
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
    let g = 7 * i land 15 in
    let a = ii a b c d (kx m i g) 6 in
    let d = ii d a b c (kx m (i + 1) ((g + 7) land 15)) 10 in
    let c = ii c d a b (kx m (i + 2) ((g + 14) land 15)) 15 in
    let b = ii b c d a (kx m (i + 3) ((g + 21) land 15)) 21 in
    quad4 m st (i + 4) a b c d
  end

(* The sixteen little-endian message words of the block at [off]. *)
let load (m : int array) (block : string) off =
  for i = 0 to 15 do
    Array.unsafe_set m i
      (Int32.to_int (String.get_int32_le block (off + (4 * i))) land mask)
  done

let compress ctx (block : string) off =
  let { sm = m; sst = st; _ } = Fbsr_util.Domain_shim.local_get scratch in
  load m block off;
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

(* Block-level access for the one-pass seal ([Des.encrypt_cbc_job_md5]),
   which compresses whole blocks outside [compress]: the bytes waiting
   in the partial block, that block completed from [s] at [pos] (read
   back through a view, before the context is fed again), and the
   chaining words out and back in after [n] more input bytes. *)
let pending ctx = ctx.buf_len

let open_block ctx s pos =
  Bytes.blit_string s pos ctx.buf ctx.buf_len (block_size - ctx.buf_len);
  Bytes.unsafe_to_string ctx.buf

let chain ctx (st : int array) =
  st.(0) <- ctx.a;
  st.(1) <- ctx.b;
  st.(2) <- ctx.c;
  st.(3) <- ctx.d

let absorbed ctx (st : int array) n =
  ctx.a <- st.(0);
  ctx.b <- st.(1);
  ctx.c <- st.(2);
  ctx.d <- st.(3);
  ctx.buf_len <- 0;
  ctx.total <- ctx.total + n

let feed_slice ctx (s : Fbsr_util.Slice.t) =
  feed ctx s.Fbsr_util.Slice.base s.Fbsr_util.Slice.off s.Fbsr_util.Slice.len

(* Padding: the buffered bytes, 0x80, zeros and the 8-byte little-endian
   bit length, written into [dst] (at least 128 bytes): one block, or two
   when the tail leaves no room for the length.  Returns the block count.
   The context is left as it was, so the blocks can be compressed where
   the caller likes: [final] compresses them at once, the one-pass seal
   beside its last DES blocks. *)
let pad ctx dst =
  let n = ctx.buf_len in
  let blocks = if n >= 56 then 2 else 1 in
  let len = block_size * blocks in
  Bytes.blit ctx.buf 0 dst 0 n;
  Bytes.set dst n '\x80';
  Bytes.fill dst (n + 1) (len - 9 - n) '\000';
  Bytes.set_int64_le dst (len - 8) (Int64.of_int (ctx.total lsl 3));
  blocks

let digest_of ctx =
  ctx.buf_len <- 0;
  let out = Bytes.create digest_size in
  Bytes.set_int32_le out 0 (Int32.of_int ctx.a);
  Bytes.set_int32_le out 4 (Int32.of_int ctx.b);
  Bytes.set_int32_le out 8 (Int32.of_int ctx.c);
  Bytes.set_int32_le out 12 (Int32.of_int ctx.d);
  Bytes.unsafe_to_string out

(* Nothing is allocated but the digest. *)
let final ctx =
  let tail = (Fbsr_util.Domain_shim.local_get scratch).stail in
  let blocks = pad ctx tail in
  compress ctx (Bytes.unsafe_to_string tail) 0;
  if blocks = 2 then compress ctx (Bytes.unsafe_to_string tail) block_size;
  digest_of ctx

(* The digest of a context whose padding blocks ([pad]) were compressed
   outside it, with the chaining words [st] they left. *)
let closed ctx st =
  absorbed ctx st 0;
  digest_of ctx

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  final ctx

let hexdigest s = Fbsr_util.Hex.encode (digest s)
