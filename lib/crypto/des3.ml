(* Triple DES (EDE3) — an extension beyond the paper for the key "wear
   out" concern of Section 5.2: a deployment worried about single-DES key
   lifetime can select a 3DES suite through the algorithm-identification
   field without any protocol change.

   Encryption: E(k3, D(k2, E(k1, block))); 24-byte keys.  Built on
   {!Des_kernel} with the interior IP/FP pairs cancelled: the kernel's
   [rounds] maps post-IP halves to the FIPS preoutput, and FP-then-IP is
   the identity, so a block takes one IP, three sixteen-round passes with
   the appropriate schedules, and one FP — a 3DES block costs three DES
   round-sets, not three full DES passes. *)

let key_size = 24

type key = { k1 : Des.key; k2 : Des.key; k3 : Des.key }

let of_string key =
  if String.length key <> key_size then invalid_arg "Des3: key must be 24 bytes";
  {
    k1 = Des.of_string (String.sub key 0 8);
    k2 = Des.of_string (String.sub key 8 8);
    k3 = Des.of_string (String.sub key 16 8);
  }

(* E(k3, D(k2, E(k1, .))) with the interior FP/IP cancelled. *)
let[@inline] encrypt_io key (io : int array) =
  Des_kernel.ip io;
  Des_kernel.rounds (Des.sched key.k1) io;
  Des_kernel.rounds_inv (Des.sched key.k2) io;
  Des_kernel.rounds (Des.sched key.k3) io;
  Des_kernel.fp io

let[@inline] decrypt_io key (io : int array) =
  Des_kernel.ip io;
  Des_kernel.rounds_inv (Des.sched key.k3) io;
  Des_kernel.rounds (Des.sched key.k2) io;
  Des_kernel.rounds_inv (Des.sched key.k1) io;
  Des_kernel.fp io

let crypt_block_i64 crypt key (block : int64) : int64 =
  let io = Array.make 2 0 in
  io.(0) <- Int64.to_int (Int64.shift_right_logical block 32);
  io.(1) <- Int64.to_int (Int64.logand block 0xffffffffL);
  crypt key io;
  Int64.logor (Int64.shift_left (Int64.of_int io.(0)) 32) (Int64.of_int io.(1))

let encrypt_block key b = crypt_block_i64 encrypt_io key b
let decrypt_block key b = crypt_block_i64 decrypt_io key b

(* Byte [j] (0..7, MSB first) of a block held as two 32-bit halves. *)
let[@inline] blk_byte h l j =
  if j < 4 then (h lsr (24 - (8 * j))) land 0xff else (l lsr (56 - (8 * j))) land 0xff

let check_iv iv = if String.length iv <> 8 then invalid_arg "Des3: IV must be 8 bytes"

(* CBC inner loop over whole blocks, chaining through [io]. *)
let cbc_blocks key (io : int array) src src_pos n dst dst_pos =
  for i = 0 to n - 1 do
    let sp = src_pos + (i * 8) and dp = dst_pos + (i * 8) in
    io.(0) <- io.(0) lxor Des_kernel.read32 src sp;
    io.(1) <- io.(1) lxor Des_kernel.read32 src (sp + 4);
    encrypt_io key io;
    Des_kernel.write32 dst dp io.(0);
    Des_kernel.write32 dst (dp + 4) io.(1)
  done

let cbc_final_block key (io : int array) src src_pos r dst dst_pos =
  let padding = 8 - r in
  let byte j = if j < r then Char.code (String.unsafe_get src (src_pos + j)) else padding in
  let bh = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  let bl = (byte 4 lsl 24) lor (byte 5 lsl 16) lor (byte 6 lsl 8) lor byte 7 in
  io.(0) <- io.(0) lxor bh;
  io.(1) <- io.(1) lxor bl;
  encrypt_io key io;
  Des_kernel.write32 dst dst_pos io.(0);
  Des_kernel.write32 dst (dst_pos + 4) io.(1)

(* Direct-into-buffer / sub-range CBC, mirroring [Des.encrypt_cbc_into]
   and [Des.decrypt_cbc_sub] for the one-allocation datapath. *)

let encrypt_cbc_into ~iv key ~src ~src_pos ~src_len ~dst ~dst_pos =
  check_iv iv;
  if src_pos < 0 || src_len < 0 || src_pos > String.length src - src_len then
    invalid_arg "Des3.encrypt_cbc_into: bad source range";
  let out_len = Des.padded_length src_len in
  if dst_pos < 0 || dst_pos > Bytes.length dst - out_len then
    invalid_arg "Des3.encrypt_cbc_into: destination too short";
  let io = Array.make 2 0 in
  io.(0) <- Des_kernel.read32 iv 0;
  io.(1) <- Des_kernel.read32 iv 4;
  let whole = src_len land lnot 7 in
  cbc_blocks key io src src_pos (whole / 8) dst dst_pos;
  cbc_final_block key io src (src_pos + whole) (src_len - whole) dst (dst_pos + whole);
  out_len

let decrypt_cbc_sub ~iv key ~src ~pos ~len =
  check_iv iv;
  if pos < 0 || len < 0 || pos > String.length src - len then
    invalid_arg "Des3.decrypt_cbc_sub: bad source range";
  if len = 0 || len mod 8 <> 0 then invalid_arg "Des3.decrypt_cbc_sub: bad length";
  let ivh = Des_kernel.read32 iv 0 and ivl = Des_kernel.read32 iv 4 in
  let n = len / 8 in
  let io = Array.make 2 0 in
  let lp_pos = pos + ((n - 2) * 8) in
  let lph = if n = 1 then ivh else Des_kernel.read32 src lp_pos in
  let lpl = if n = 1 then ivl else Des_kernel.read32 src (lp_pos + 4) in
  io.(0) <- Des_kernel.read32 src (pos + ((n - 1) * 8));
  io.(1) <- Des_kernel.read32 src (pos + ((n - 1) * 8) + 4);
  decrypt_io key io;
  let lh = io.(0) lxor lph and ll = io.(1) lxor lpl in
  let padding = ll land 0xff in
  if padding < 1 || padding > 8 then invalid_arg "Des3.decrypt_cbc_sub: corrupt padding";
  for j = 8 - padding to 7 do
    if blk_byte lh ll j <> padding then invalid_arg "Des3.decrypt_cbc_sub: corrupt padding"
  done;
  let out = Bytes.create (len - padding) in
  let ph = ref ivh and pl = ref ivl in
  for i = 0 to n - 2 do
    let sp = pos + (i * 8) in
    let ch = Des_kernel.read32 src sp and cl = Des_kernel.read32 src (sp + 4) in
    io.(0) <- ch;
    io.(1) <- cl;
    decrypt_io key io;
    Des_kernel.write32 out (i * 8) (io.(0) lxor !ph);
    Des_kernel.write32 out ((i * 8) + 4) (io.(1) lxor !pl);
    ph := ch;
    pl := cl
  done;
  for j = 0 to 7 - padding do
    Bytes.set out (((n - 1) * 8) + j) (Char.chr (blk_byte lh ll j))
  done;
  Bytes.unsafe_to_string out
