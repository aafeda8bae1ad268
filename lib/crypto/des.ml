(* The Data Encryption Standard (FIPS PUB 46) and its modes of operation
   (FIPS PUB 81).  The paper uses DES for data confidentiality; the
   confounder in the FBS header is the IV for CBC/CFB/OFB, and in ECB mode
   it is XORed with every plaintext block before encryption (Section 5.2).

   The block kernel lives in {!Des_kernel}: fused SP tables, byte-indexed
   IP/FP, sixteen unrolled rounds on untagged native [int] halves.  This
   module owns key handling (schedules, parity, weak keys) and the FIPS 81
   mode loops.  The mode loops keep a block in a single reused 2-element
   scratch array and load/store halves straight from the source/destination
   buffers, so steady-state encryption allocates nothing per block.  The
   original bit-gather implementation survives as
   [Fbsr_oracles.Des_ref], the differential-testing oracle. *)

exception Weak_key

let block_size = 8
let key_size = 8

(* A key is its expanded schedule, packed for the kernel: encrypt-order
   and decrypt-order round words.  Expansion happens once in [of_string];
   the engine additionally caches expanded keys per flow (TFKC/RFKC). *)
type key = { ke : int array; kd : int array }

let sched_e k = k.ke
let sched_d k = k.kd

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
  let ke, kd = Des_kernel.schedule key in
  { ke; kd }

let adjust_parity key =
  String.init (String.length key) (fun i ->
      let b = Char.code key.[i] land 0xfe in
      let ones = ref 0 in
      for j = 1 to 7 do
        if (b lsr j) land 1 = 1 then incr ones
      done;
      Char.chr (b lor if !ones land 1 = 0 then 1 else 0))

(* One full DES pass over the scratch block. *)
let[@inline] crypt_io ks io =
  Des_kernel.ip io;
  Des_kernel.rounds ks io;
  Des_kernel.fp io

(* Byte [j] (0..7, MSB first) of the block held as two 32-bit halves. *)
let[@inline] blk_byte h l j =
  if j < 4 then (h lsr (24 - (8 * j))) land 0xff else (l lsr (56 - (8 * j))) land 0xff

(* --- Int64 block API (tests, oracles; not on the datagram path) --- *)

let crypt_block_i64 ks (block : int64) : int64 =
  let io = Array.make 2 0 in
  io.(0) <- Int64.to_int (Int64.shift_right_logical block 32);
  io.(1) <- Int64.to_int (Int64.logand block 0xffffffffL);
  crypt_io ks io;
  Int64.logor (Int64.shift_left (Int64.of_int io.(0)) 32) (Int64.of_int io.(1))

let encrypt_block key pt = crypt_block_i64 key.ke pt
let decrypt_block key ct = crypt_block_i64 key.kd ct

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

(* --- Modes of operation (FIPS 81) --- *)

type mode = Ecb | Cbc | Cfb | Ofb

(* PKCS#7-style padding for the block modes; always adds at least one byte,
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

(* ECB with the paper's confounder whitening: the confounder (expanded to a
   64-bit block) is XORed with every plaintext block before encryption. *)
let encrypt_ecb ?(confounder = String.make 8 '\000') key pt =
  check_iv confounder;
  let cfh = Des_kernel.read32 confounder 0 and cfl = Des_kernel.read32 confounder 4 in
  let data = pad pt in
  let n = String.length data / 8 in
  let out = Bytes.create (n * 8) in
  let io = Array.make 2 0 in
  for i = 0 to n - 1 do
    let pos = i * 8 in
    io.(0) <- Des_kernel.read32 data pos lxor cfh;
    io.(1) <- Des_kernel.read32 data (pos + 4) lxor cfl;
    crypt_io key.ke io;
    Des_kernel.write32 out pos io.(0);
    Des_kernel.write32 out (pos + 4) io.(1)
  done;
  Bytes.unsafe_to_string out

let decrypt_ecb ?(confounder = String.make 8 '\000') key ct =
  check_iv confounder;
  let cfh = Des_kernel.read32 confounder 0 and cfl = Des_kernel.read32 confounder 4 in
  let n = String.length ct in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des.decrypt_ecb: bad length";
  let out = Bytes.create n in
  let io = Array.make 2 0 in
  for i = 0 to (n / 8) - 1 do
    let pos = i * 8 in
    io.(0) <- Des_kernel.read32 ct pos;
    io.(1) <- Des_kernel.read32 ct (pos + 4);
    crypt_io key.kd io;
    Des_kernel.write32 out pos (io.(0) lxor cfh);
    Des_kernel.write32 out (pos + 4) (io.(1) lxor cfl)
  done;
  unpad (Bytes.unsafe_to_string out)

(* The CBC inner loop: encrypt [n] whole blocks of [src] starting at
   [src_pos] into [dst] at [dst_pos], chaining through [io]'s current
   contents (the previous ciphertext block or IV), leaving the last
   ciphertext block in [io].  Shared by the string, incremental and
   into-buffer entry points; no allocation, no bounds checks. *)
let cbc_blocks ks (io : int array) src src_pos n dst dst_pos =
  for i = 0 to n - 1 do
    let sp = src_pos + (i * 8) and dp = dst_pos + (i * 8) in
    io.(0) <- io.(0) lxor Des_kernel.read32 src sp;
    io.(1) <- io.(1) lxor Des_kernel.read32 src (sp + 4);
    crypt_io ks io;
    Des_kernel.write32 dst dp io.(0);
    Des_kernel.write32 dst (dp + 4) io.(1)
  done

let encrypt_cbc ~iv key pt =
  check_iv iv;
  let data = pad pt in
  let n = String.length data / 8 in
  let out = Bytes.create (n * 8) in
  let io = Array.make 2 0 in
  io.(0) <- Des_kernel.read32 iv 0;
  io.(1) <- Des_kernel.read32 iv 4;
  cbc_blocks key.ke io data 0 n out 0;
  Bytes.unsafe_to_string out

let decrypt_cbc ~iv key ct =
  check_iv iv;
  let n = String.length ct in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des.decrypt_cbc: bad length";
  let out = Bytes.create n in
  let io = Array.make 2 0 in
  let ph = ref (Des_kernel.read32 iv 0) and pl = ref (Des_kernel.read32 iv 4) in
  for i = 0 to (n / 8) - 1 do
    let pos = i * 8 in
    let ch = Des_kernel.read32 ct pos and cl = Des_kernel.read32 ct (pos + 4) in
    io.(0) <- ch;
    io.(1) <- cl;
    crypt_io key.kd io;
    Des_kernel.write32 out pos (io.(0) lxor !ph);
    Des_kernel.write32 out (pos + 4) (io.(1) lxor !pl);
    ph := ch;
    pl := cl
  done;
  unpad (Bytes.unsafe_to_string out)

(* Ciphertext length of a padded-mode (CBC/ECB) encryption: the padding
   always adds 1-8 bytes, so the output is the next multiple of 8. *)
let padded_length n = n + 8 - (n mod 8)

(* Encrypt the final CBC block: the 0-7 leftover source bytes then PKCS#7
   padding bytes, chained through [io]. *)
let cbc_final_block ks (io : int array) src src_pos r dst dst_pos =
  let padding = 8 - r in
  let byte j = if j < r then Char.code (String.unsafe_get src (src_pos + j)) else padding in
  let bh = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  let bl = (byte 4 lsl 24) lor (byte 5 lsl 16) lor (byte 6 lsl 8) lor byte 7 in
  io.(0) <- io.(0) lxor bh;
  io.(1) <- io.(1) lxor bl;
  crypt_io ks io;
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
  cbc_blocks key.ke io src src_pos (whole / 8) dst dst_pos;
  cbc_final_block key.ke io src (src_pos + whole) (src_len - whole) dst (dst_pos + whole);
  out_len

(* CBC decryption of a sub-range without copying the ciphertext out of
   its surrounding buffer first, allocating only the exact plaintext.
   CBC decryption is position-independent (each block needs only its
   ciphertext predecessor), so the last block is decrypted first to
   learn the padding length, then the output is sized exactly. *)
let decrypt_cbc_sub ~iv key ~src ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length src - len then
    invalid_arg "Des.decrypt_cbc_sub: bad source range";
  if len = 0 || len mod 8 <> 0 then invalid_arg "Des.decrypt_cbc_sub: bad length";
  check_iv iv;
  let ivh = Des_kernel.read32 iv 0 and ivl = Des_kernel.read32 iv 4 in
  let n = len / 8 in
  let io = Array.make 2 0 in
  let lp_pos = pos + ((n - 2) * 8) in
  let lph = if n = 1 then ivh else Des_kernel.read32 src lp_pos in
  let lpl = if n = 1 then ivl else Des_kernel.read32 src (lp_pos + 4) in
  io.(0) <- Des_kernel.read32 src (pos + ((n - 1) * 8));
  io.(1) <- Des_kernel.read32 src (pos + ((n - 1) * 8) + 4);
  crypt_io key.kd io;
  let lh = io.(0) lxor lph and ll = io.(1) lxor lpl in
  let padding = ll land 0xff in
  if padding < 1 || padding > 8 then invalid_arg "Des.decrypt_cbc_sub: corrupt padding";
  for j = 8 - padding to 7 do
    if blk_byte lh ll j <> padding then invalid_arg "Des.decrypt_cbc_sub: corrupt padding"
  done;
  let out = Bytes.create (len - padding) in
  let ph = ref ivh and pl = ref ivl in
  for i = 0 to n - 2 do
    let sp = pos + (i * 8) in
    let ch = Des_kernel.read32 src sp and cl = Des_kernel.read32 src (sp + 4) in
    io.(0) <- ch;
    io.(1) <- cl;
    crypt_io key.kd io;
    Des_kernel.write32 out (i * 8) (io.(0) lxor !ph);
    Des_kernel.write32 out ((i * 8) + 4) (io.(1) lxor !pl);
    ph := ch;
    pl := cl
  done;
  for j = 0 to 7 - padding do
    Bytes.set out (((n - 1) * 8) + j) (Char.chr (blk_byte lh ll j))
  done;
  Bytes.unsafe_to_string out

(* Incremental CBC: lets callers interleave encryption with other
   data-touching work (Section 5.3 of the paper: "the MAC computation and
   encryption should be rolled into one loop").  Feed whole blocks with
   [cbc_update]; [cbc_finish] pads the tail.  The chaining block lives in
   the context's scratch array, so whole-block updates do not box. *)

type cbc_ctx = { cbc_key : key; chain : int array; tail : Buffer.t }

let cbc_init ~iv key =
  check_iv iv;
  let chain = Array.make 2 0 in
  chain.(0) <- Des_kernel.read32 iv 0;
  chain.(1) <- Des_kernel.read32 iv 4;
  { cbc_key = key; chain; tail = Buffer.create 8 }

let cbc_encrypt_blocks ctx data =
  (* data length must be a multiple of 8 *)
  let n = String.length data / 8 in
  let out = Bytes.create (n * 8) in
  cbc_blocks ctx.cbc_key.ke ctx.chain data 0 n out 0;
  Bytes.unsafe_to_string out

let cbc_update ctx data =
  Buffer.add_string ctx.tail data;
  let buffered = Buffer.contents ctx.tail in
  let whole = String.length buffered land lnot 7 in
  if whole = 0 then ""
  else begin
    Buffer.clear ctx.tail;
    Buffer.add_substring ctx.tail buffered whole (String.length buffered - whole);
    cbc_encrypt_blocks ctx (String.sub buffered 0 whole)
  end

let cbc_finish ctx =
  let rest = Buffer.contents ctx.tail in
  Buffer.clear ctx.tail;
  let r = String.length rest in
  let out = Bytes.create 8 in
  cbc_final_block ctx.cbc_key.ke ctx.chain rest 0 r out 0;
  Bytes.unsafe_to_string out

(* Zero-allocation incremental CBC over whole blocks straight into a
   caller buffer — the [Fused] single-pass MAC+encrypt loop.  [chain] is
   a 2-element scratch holding the running ciphertext block (seed it with
   [cbc_seed_chain]); [cbc_blocks_into] consumes [nblocks] whole blocks,
   [cbc_tail_into] the final 0-7 leftover bytes plus padding (writes
   exactly one block). *)

let cbc_seed_chain ~iv chain =
  check_iv iv;
  chain.(0) <- Des_kernel.read32 iv 0;
  chain.(1) <- Des_kernel.read32 iv 4

let cbc_blocks_into key chain ~src ~src_pos ~nblocks ~dst ~dst_pos =
  if src_pos < 0 || nblocks < 0 || src_pos > String.length src - (nblocks * 8) then
    invalid_arg "Des.cbc_blocks_into: bad source range";
  if dst_pos < 0 || dst_pos > Bytes.length dst - (nblocks * 8) then
    invalid_arg "Des.cbc_blocks_into: destination too short";
  cbc_blocks key.ke chain src src_pos nblocks dst dst_pos

let cbc_tail_into key chain ~src ~src_pos ~src_len ~dst ~dst_pos =
  if src_pos < 0 || src_len < 0 || src_len > 7 || src_pos > String.length src - src_len
  then invalid_arg "Des.cbc_tail_into: bad source range";
  if dst_pos < 0 || dst_pos > Bytes.length dst - 8 then
    invalid_arg "Des.cbc_tail_into: destination too short";
  cbc_final_block key.ke chain src src_pos src_len dst dst_pos

(* Full-block (64-bit) CFB; stream-mode, no padding needed. *)
let cfb_transform ~iv ~decrypt key input =
  check_iv iv;
  let n = String.length input in
  let out = Bytes.create n in
  let io = Array.make 2 0 in
  let sh = ref (Des_kernel.read32 iv 0) and sl = ref (Des_kernel.read32 iv 4) in
  let i = ref 0 in
  while !i < n do
    io.(0) <- !sh;
    io.(1) <- !sl;
    crypt_io key.ke io;
    let take = min 8 (n - !i) in
    (* Gather the input block, a short final block aligned to the top. *)
    let bh = ref 0 and bl = ref 0 in
    for j = 0 to take - 1 do
      let c = Char.code input.[!i + j] in
      if j < 4 then bh := !bh lor (c lsl (24 - (8 * j)))
      else bl := !bl lor (c lsl (56 - (8 * j)))
    done;
    let oh = !bh lxor io.(0) and ol = !bl lxor io.(1) in
    for j = 0 to take - 1 do
      Bytes.set out (!i + j) (Char.chr (blk_byte oh ol j))
    done;
    (* Feedback is the ciphertext block. *)
    if decrypt then begin
      sh := !bh;
      sl := !bl
    end
    else begin
      sh := oh;
      sl := ol
    end;
    i := !i + take
  done;
  Bytes.unsafe_to_string out

let encrypt_cfb ~iv key pt = cfb_transform ~iv ~decrypt:false key pt
let decrypt_cfb ~iv key ct = cfb_transform ~iv ~decrypt:true key ct

(* OFB: keystream independent of the data, encrypt = decrypt. *)
let ofb_transform ~iv key input =
  check_iv iv;
  let n = String.length input in
  let out = Bytes.create n in
  let io = Array.make 2 0 in
  io.(0) <- Des_kernel.read32 iv 0;
  io.(1) <- Des_kernel.read32 iv 4;
  let i = ref 0 in
  while !i < n do
    crypt_io key.ke io;
    let take = min 8 (n - !i) in
    for j = 0 to take - 1 do
      let ks = blk_byte io.(0) io.(1) j in
      Bytes.set out (!i + j) (Char.chr (Char.code input.[!i + j] lxor ks))
    done;
    i := !i + take
  done;
  Bytes.unsafe_to_string out

let encrypt_ofb ~iv key pt = ofb_transform ~iv key pt
let decrypt_ofb ~iv key ct = ofb_transform ~iv key ct

let encrypt ~mode ~iv key pt =
  match mode with
  | Ecb -> encrypt_ecb ~confounder:iv key pt
  | Cbc -> encrypt_cbc ~iv key pt
  | Cfb -> encrypt_cfb ~iv key pt
  | Ofb -> encrypt_ofb ~iv key pt

let decrypt ~mode ~iv key ct =
  match mode with
  | Ecb -> decrypt_ecb ~confounder:iv key ct
  | Cbc -> decrypt_cbc ~iv key ct
  | Cfb -> decrypt_cfb ~iv key ct
  | Ofb -> decrypt_ofb ~iv key ct
