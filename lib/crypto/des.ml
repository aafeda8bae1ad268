(* The Data Encryption Standard (FIPS PUB 46) in CBC mode (FIPS PUB 81).
   The paper uses DES for data confidentiality; the confounder in the FBS
   header is the CBC IV (Section 5.2).

   The block kernel lives in {!Des_kernel}: one fused SP table,
   byte-indexed IP/FP, sixteen unrolled rounds on untagged native [int]
   halves, and the CBC drivers ([Des_kernel.cbc_encrypt] keeps the chain
   in registers, [Des_kernel.cbc_encrypt2] runs two datagrams' chains side
   by side, [Des_kernel.cbc_encrypt_md5] runs one beside MD5,
   [Des_kernel.cbc_decrypt] runs two blocks at a time).
   This module owns key handling (schedules, parity, weak keys) and the
   CBC entry points, which load/store halves straight from the
   source/destination buffers, so steady-state encryption allocates
   nothing per block.  The original bit-gather implementation survives
   as [Fbsr_oracles.Des_ref], the differential-testing oracle. *)

exception Weak_key

let key_size = 8

(* A key is its expanded schedule, packed for the kernel: the 32
   encrypt-order round words, which decryption walks backwards.
   Expansion happens once in [of_string]; the engine additionally caches
   expanded keys per flow (TFKC/RFKC). *)
type key = int array

let weak_keys =
  (* The four weak keys of FIPS 74, with standard odd parity. *)
  [ "0101010101010101"; "fefefefefefefefe"; "e0e0e0e0f1f1f1f1"; "1f1f1f1f0e0e0e0e" ]

let strip_parity key =
  (* Two keys differing only in parity bits are the same DES key. *)
  String.init (String.length key) (fun i -> Char.chr (Char.code key.[i] land 0xfe))

let is_weak_key key =
  let k = strip_parity key in
  List.exists (fun w -> strip_parity (Fbsr_util.Hex.decode w) = k) weak_keys

let of_string ?(check_weak = false) key =
  if String.length key <> key_size then invalid_arg "Des: key must be 8 bytes";
  if check_weak && is_weak_key key then raise Weak_key;
  Des_kernel.schedule key

let of_prefix = Des_kernel.schedule

let adjust_parity key =
  String.init (String.length key) (fun i ->
      let b = Char.code key.[i] land 0xfe in
      let ones = ref 0 in
      for j = 1 to 7 do
        if (b lsr j) land 1 = 1 then incr ones
      done;
      Char.chr (b lor if !ones land 1 = 0 then 1 else 0))

(* Byte [j] (0..7, MSB first) of the block held as two 32-bit halves. *)
let[@inline] blk_byte h l j =
  if j < 4 then (h lsr (24 - (8 * j))) land 0xff else (l lsr (56 - (8 * j))) land 0xff

(* --- Int64 block API (tests, oracles; not on the datagram path) --- *)

let crypt_block_i64 crypt ks (block : int64) : int64 =
  let io = Array.make 2 0 in
  io.(0) <- Int64.to_int (Int64.shift_right_logical block 32);
  io.(1) <- Int64.to_int (Int64.logand block 0xffffffffL);
  crypt ks io;
  Int64.logor (Int64.shift_left (Int64.of_int io.(0)) 32) (Int64.of_int io.(1))

let encrypt_block key pt = crypt_block_i64 Des_kernel.crypt key pt
let decrypt_block key ct = crypt_block_i64 Des_kernel.crypt_inv key ct

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

let encrypt_block_bytes key (pt : string) : string =
  if String.length pt <> 8 then invalid_arg "Des.encrypt_block_bytes: need 8 bytes";
  let out = Bytes.create 8 in
  block_to_bytes out 0 (encrypt_block key (block_of_string pt 0));
  Bytes.unsafe_to_string out

let decrypt_block_bytes key (ct : string) : string =
  if String.length ct <> 8 then invalid_arg "Des.decrypt_block_bytes: need 8 bytes";
  let out = Bytes.create 8 in
  block_to_bytes out 0 (decrypt_block key (block_of_string ct 0));
  Bytes.unsafe_to_string out

(* --- CBC (FIPS 81) --- *)

(* PKCS#7-style padding; always adds at least one byte,
   so the unpadded length is unambiguous. *)
let pad s =
  let n = String.length s in
  let padding = 8 - (n mod 8) in
  s ^ String.make padding (Char.chr padding)

let unpad s =
  let n = String.length s in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des.unpad: bad length";
  let padding = Char.code s.[n - 1] in
  if padding < 1 || padding > 8 || padding > n then invalid_arg "Des.unpad: corrupt padding";
  for i = n - padding to n - 1 do
    if Char.code s.[i] <> padding then invalid_arg "Des.unpad: corrupt padding"
  done;
  String.sub s 0 (n - padding)

let check_iv iv = if String.length iv <> 8 then invalid_arg "Des: IV must be 8 bytes"

let encrypt_cbc ~iv key pt =
  check_iv iv;
  let data = pad pt in
  let n = String.length data / 8 in
  let out = Bytes.create (n * 8) in
  let io = Array.make 2 0 in
  io.(0) <- Des_kernel.read32 iv 0;
  io.(1) <- Des_kernel.read32 iv 4;
  Des_kernel.cbc_encrypt key io data 0 n out 0;
  Bytes.unsafe_to_string out

let decrypt_cbc ~iv key ct =
  check_iv iv;
  let n = String.length ct in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des.decrypt_cbc: bad length";
  let out = Bytes.create n in
  Des_kernel.cbc_decrypt key ~ivh:(Des_kernel.read32 iv 0)
    ~ivl:(Des_kernel.read32 iv 4) ct 0 (n / 8) out 0;
  unpad (Bytes.unsafe_to_string out)

(* Ciphertext length of a CBC encryption: the padding
   always adds 1-8 bytes, so the output is the next multiple of 8. *)
let padded_length n = n + 8 - (n mod 8)

(* Byte [j] of the final CBC block: one of the [r] leftover source bytes
   at [src_pos], else PKCS#7 padding.  A top-level function, so the
   final block allocates no closure. *)
let[@inline] final_byte src src_pos r j =
  if j < r then Char.code (String.unsafe_get src (src_pos + j)) else 8 - r

(* Encrypt the final CBC block: the 0-7 leftover source bytes then PKCS#7
   padding bytes, chained through [io]. *)
let cbc_final_block ks (io : int array) src src_pos r dst dst_pos =
  let bh =
    (final_byte src src_pos r 0 lsl 24)
    lor (final_byte src src_pos r 1 lsl 16)
    lor (final_byte src src_pos r 2 lsl 8)
    lor final_byte src src_pos r 3
  in
  let bl =
    (final_byte src src_pos r 4 lsl 24)
    lor (final_byte src src_pos r 5 lsl 16)
    lor (final_byte src src_pos r 6 lsl 8)
    lor final_byte src src_pos r 7
  in
  io.(0) <- io.(0) lxor bh;
  io.(1) <- io.(1) lxor bl;
  Des_kernel.crypt ks io;
  Des_kernel.write32 dst dst_pos io.(0);
  Des_kernel.write32 dst (dst_pos + 4) io.(1)

(* CBC encryption from a sub-range of [src] directly into [dst] — the
   one-allocation seal path builds the wire buffer and encrypts into it,
   with the PKCS#7 padding applied on the fly instead of via an
   intermediate padded copy.  Byte-identical to
   [encrypt_cbc ~iv key (String.sub src src_pos src_len)]. *)
let encrypt_cbc_into ~iv key ~src ~src_pos ~src_len ~dst ~dst_pos =
  if src_pos < 0 || src_len < 0 || src_pos > String.length src - src_len then
    invalid_arg "Des.encrypt_cbc_into: bad source range";
  let out_len = padded_length src_len in
  if dst_pos < 0 || dst_pos > Bytes.length dst - out_len then
    invalid_arg "Des.encrypt_cbc_into: destination too short";
  check_iv iv;
  let io = Array.make 2 0 in
  io.(0) <- Des_kernel.read32 iv 0;
  io.(1) <- Des_kernel.read32 iv 4;
  let whole = src_len land lnot 7 in
  Des_kernel.cbc_encrypt key io src src_pos (whole / 8) dst dst_pos;
  cbc_final_block key io src (src_pos + whole) (src_len - whole) dst (dst_pos + whole);
  out_len

(* CBC decryption of a sub-range without copying the ciphertext out of
   its surrounding buffer first, allocating only the exact plaintext.
   CBC decryption is position-independent (each block needs only its
   ciphertext predecessor), so the last block is decrypted first to
   learn the padding length, then the output is sized exactly.
   [cbc_open_final] is that first step: it checks the padding, allocates
   the plaintext and writes the final block's surviving bytes, leaving
   the [len/8 - 1] blocks before it to [Des_kernel.cbc_decrypt]. *)
let cbc_open_final ~iv key ~src ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length src - len then
    invalid_arg "Des.decrypt_cbc_sub: bad source range";
  if len = 0 || len mod 8 <> 0 then invalid_arg "Des.decrypt_cbc_sub: bad length";
  check_iv iv;
  let n = len / 8 in
  let last = pos + ((n - 1) * 8) in
  let lph = if n = 1 then Des_kernel.read32 iv 0 else Des_kernel.read32 src (last - 8) in
  let lpl = if n = 1 then Des_kernel.read32 iv 4 else Des_kernel.read32 src (last - 4) in
  let io = Array.make 2 0 in
  io.(0) <- Des_kernel.read32 src last;
  io.(1) <- Des_kernel.read32 src (last + 4);
  Des_kernel.crypt_inv key io;
  let lh = io.(0) lxor lph and ll = io.(1) lxor lpl in
  let padding = ll land 0xff in
  if padding < 1 || padding > 8 then invalid_arg "Des.decrypt_cbc_sub: corrupt padding";
  for j = 8 - padding to 7 do
    if blk_byte lh ll j <> padding then invalid_arg "Des.decrypt_cbc_sub: corrupt padding"
  done;
  let out = Bytes.create (len - padding) in
  for j = 0 to 7 - padding do
    Bytes.unsafe_set out (((n - 1) * 8) + j) (Char.unsafe_chr (blk_byte lh ll j))
  done;
  out

let decrypt_cbc_sub ~iv key ~src ~pos ~len =
  let out = cbc_open_final ~iv key ~src ~pos ~len in
  Des_kernel.cbc_decrypt key ~ivh:(Des_kernel.read32 iv 0)
    ~ivl:(Des_kernel.read32 iv 4) src pos ((len / 8) - 1) out 0;
  Bytes.unsafe_to_string out

(* --- Deferred CBC jobs ---

   A seal batch parks one datagram's CBC encryption as a job and runs it
   beside the next one's on the two-chain kernel,
   [Des_kernel.cbc_encrypt2]: one CBC chain is serial, but two chains
   from two datagrams are independent, and the second fills the issue
   slots the first leaves idle (DESIGN.md §6c).  A job with no partner
   runs alone. *)

type cbc_job = {
  sched : int array; (* packed encrypt schedule *)
  chain : int array; (* the IV, then the running ciphertext block *)
  src : string; (* borrowed until the run; not copied *)
  src_pos : int;
  src_len : int;
  dst : Bytes.t;
  dst_pos : int;
}

let cbc_job ~key ~iv ~src ~src_pos ~src_len ~dst ~dst_pos =
  check_iv iv;
  if src_pos < 0 || src_len < 0 || src_pos > String.length src - src_len then
    invalid_arg "Des.cbc_job: bad source range";
  if dst_pos < 0 || dst_pos > Bytes.length dst - padded_length src_len then
    invalid_arg "Des.cbc_job: bad destination range";
  let chain = Array.make 2 0 in
  chain.(0) <- Des_kernel.read32 iv 0;
  chain.(1) <- Des_kernel.read32 iv 4;
  { sched = key; chain; src; src_pos; src_len; dst; dst_pos }

(* The padded final block of a job whose whole blocks have run. *)
let finish_job j =
  let whole = j.src_len land lnot 7 in
  cbc_final_block j.sched j.chain j.src (j.src_pos + whole) (j.src_len - whole) j.dst
    (j.dst_pos + whole);
  (whole / 8) + 1

let encrypt_cbc_job j =
  Des_kernel.cbc_encrypt j.sched j.chain j.src j.src_pos (j.src_len / 8) j.dst j.dst_pos;
  finish_job j

let cbc_job_blocks j = padded_length j.src_len / 8
let feed_source_md5 j md5 = Md5.feed md5 j.src j.src_pos j.src_len

(* A job run alone with MD5 absorbing its source beside the chain: the
   one-pass seal ([Fused]).  [md5] holds what precedes the source in the
   MAC's input, 0-63 bytes of it in its partial block.  MD5's blocks run
   on [Des_kernel.cbc_encrypt_md5], one per four DES blocks, for as long
   as there are DES blocks to run them beside: first the whole blocks of
   partial block and source, then the padding blocks ([Md5.pad]).  DES
   blocks left over run on [cbc_encrypt]; MD5 blocks left over (source
   blocks, or the padding, when the source is too short to cover them)
   on [Md5].  Returns the digest. *)
let md5_chain = Fbsr_util.Domain_shim.local_make (fun () -> Array.make 4 0)
let md5_tail = Fbsr_util.Domain_shim.local_make (fun () -> Bytes.create 128)

let encrypt_cbc_job_md5 j md5 =
  let st = Fbsr_util.Domain_shim.local_get md5_chain in
  let r = Md5.pending md5 and groups = j.src_len / 32 in
  let n1 = min ((r + j.src_len) / Md5.block_size) groups in
  let hashed =
    if n1 = 0 then 0
    else begin
      Md5.chain md5 st;
      let first = if r = 0 then j.src else Md5.open_block md5 j.src j.src_pos in
      let first_pos = if r = 0 then j.src_pos else 0 in
      Des_kernel.cbc_encrypt_md5 j.sched j.chain j.src j.src_pos j.dst j.dst_pos st first
        first_pos j.src (j.src_pos + Md5.block_size - r) n1;
      let hashed = (Md5.block_size * n1) - r in
      Md5.absorbed md5 st hashed;
      hashed
    end
  in
  Md5.feed md5 j.src (j.src_pos + hashed) (j.src_len - hashed);
  let n2 = if Md5.pending md5 < 56 then 1 else 2 in
  let fused = if groups - n1 >= n2 then n1 + n2 else n1 in
  let digest =
    if fused = n1 then Md5.final md5
    else begin
      let tail = Fbsr_util.Domain_shim.local_get md5_tail in
      ignore (Md5.pad md5 tail : int);
      Md5.chain md5 st;
      let tail = Bytes.unsafe_to_string tail and o = 32 * n1 in
      Des_kernel.cbc_encrypt_md5 j.sched j.chain j.src (j.src_pos + o) j.dst (j.dst_pos + o)
        st tail 0 tail Md5.block_size n2;
      Md5.closed md5 st
    end
  in
  let o = 32 * fused in
  Des_kernel.cbc_encrypt j.sched j.chain j.src (j.src_pos + o)
    ((j.src_len / 8) - (4 * fused))
    j.dst (j.dst_pos + o);
  ignore (finish_job j : int);
  digest

let encrypt_cbc_pair a b =
  Des_kernel.cbc_encrypt2 a.sched a.chain a.src a.src_pos a.dst a.dst_pos (a.src_len / 8)
    b.sched b.chain b.src b.src_pos b.dst b.dst_pos (b.src_len / 8);
  finish_job a + finish_job b

let encrypt_cbc_jobs jobs =
  let n = Array.length jobs in
  let blocks = ref 0 in
  for p = 0 to (n / 2) - 1 do
    blocks := !blocks + encrypt_cbc_pair jobs.(2 * p) jobs.((2 * p) + 1)
  done;
  if n land 1 = 1 then blocks := !blocks + encrypt_cbc_job jobs.(n - 1);
  !blocks
