(* Message authentication codes.

   The paper defines the FBS MAC as a keyed hash with the key prepended:

       MAC = HMAC(K_f | confounder | timestamp | payload)

   where "HMAC" in the paper's notation is simply "some one-way
   cryptographic hash function" applied to the key-prefixed message — i.e.
   the 1996-era prefix MAC (keyed MD5), not RFC 2104 HMAC.  We implement
   both: [prefix] reproduces the paper exactly, and [hmac] is the modern
   construction (RFC 2104), selectable through the FBS algorithm-suite field
   and compared in an ablation bench.

   [prefix] and [hmac] take string parts.  The FBS datapath MACs through a
   per-flow midstate instead ([prepare], [compute_midstate]), which folds
   over borrowed [Slice.t] views of the wire buffer with zero
   concatenation or copying. *)

open Fbsr_util

let prefix (hash : Hash.t) ~key parts = Hash.digest_list hash (key :: parts)

let hmac_key_pads (module H : Hash.S) ~key =
  let block = H.block_size in
  let key = if String.length key > block then H.digest key else key in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xor_pad byte =
    String.init block (fun i -> Char.chr (Char.code key.[i] lxor byte))
  in
  (xor_pad 0x36, xor_pad 0x5c)

let hmac ((module H : Hash.S) as hash : Hash.t) ~key parts =
  let ipad, opad = hmac_key_pads hash ~key in
  let inner = H.digest_list (ipad :: parts) in
  H.digest_list [ opad; inner ]

(* DES-CBC-MAC (FIPS 113 style): the paper's footnote 12 — "for
   efficiency, DES could have been used for both encryption and MAC
   computation".  The MAC is the last cipher block of a zero-IV CBC pass
   over the padded message; the 8-byte DES key is derived from the first
   key bytes with adjusted parity. *)
(* The schedule expansion is the expensive part now that the block kernel
   is table-driven; [prepare] caches the expanded MAC key per flow next to
   the cipher schedules. *)
let des_cbc_prepare ~key =
  if String.length key < 8 then invalid_arg "Mac.des_cbc: key too short";
  Des.of_string (Des.adjust_parity (String.sub key 0 8))

(* Streaming CBC fold over slice parts: the CBC state is one cipher block
   (two native-int halves in a scratch array, fed straight to the
   {!Des_kernel.crypt}) plus a <8-byte carry, so the MAC needs no
   concatenation and no ciphertext buffer at all — only the final block
   survives.  Byte-identical to the last block of [Des.encrypt_cbc] with a
   zero IV over the same byte stream. *)
let des_cbc_slices_keyed des_key parts =
  let ks = Des.sched des_key in
  let io = Array.make 2 0 in
  (* io holds the running ciphertext block; starts at the zero IV. *)
  let carry = Bytes.create 8 in
  let carry_view = Bytes.unsafe_to_string carry in
  let carry_len = ref 0 in
  let total = ref 0 in
  let eat_block hi lo =
    io.(0) <- io.(0) lxor hi;
    io.(1) <- io.(1) lxor lo;
    Des_kernel.crypt ks io
  in
  let eat_carry () =
    eat_block (Des_kernel.read32 carry_view 0) (Des_kernel.read32 carry_view 4);
    carry_len := 0
  in
  let feed base pos len =
    total := !total + len;
    let pos = ref pos and len = ref len in
    if !carry_len > 0 then begin
      let take = min !len (8 - !carry_len) in
      Bytes.blit_string base !pos carry !carry_len take;
      carry_len := !carry_len + take;
      pos := !pos + take;
      len := !len - take;
      if !carry_len = 8 then eat_carry ()
    end;
    while !len >= 8 do
      eat_block (Des_kernel.read32 base !pos) (Des_kernel.read32 base (!pos + 4));
      pos := !pos + 8;
      len := !len - 8
    done;
    if !len > 0 then begin
      Bytes.blit_string base !pos carry 0 !len;
      carry_len := !len
    end
  in
  List.iter (fun (s : Slice.t) -> feed s.Slice.base s.Slice.off s.Slice.len) parts;
  (* PKCS#7 tail, as [Des.pad] appends it: 8 - (total mod 8) bytes, each
     equal to that count (a full padding block when already aligned). *)
  let padding = 8 - (!total mod 8) in
  for _ = 1 to padding do
    Bytes.set carry !carry_len (Char.chr padding);
    incr carry_len;
    if !carry_len = 8 then eat_carry ()
  done;
  let out = Bytes.create 8 in
  Des_kernel.write32 out 0 io.(0);
  Des_kernel.write32 out 4 io.(1);
  Bytes.unsafe_to_string out

type algorithm = Prefix | Hmac | Des_cbc_mac

(* Per-flow MAC midstates: everything about the key that can be absorbed
   ahead of time, so the per-datagram MAC starts from a frozen state
   instead of re-absorbing K_f (or re-expanding the DES-CBC-MAC key).

   - [Prefix_mid]: the hash state after absorbing the key prefix — for
     the paper's keyed-MD5 MAC this folds the whole key absorption into
     flow setup.
   - [Hmac_mid]: the inner hash state after absorbing ipad, plus opad
     for the outer pass (the outer state cannot be frozen: it absorbs
     the inner digest, which depends on the message).
   - [Des_cbc_seed]: the pre-expanded CBC-MAC key schedule; the chain
     itself starts from the zero IV, so the schedule is the entire
     key-dependent precomputation.
   - [Md5_mid]: [Prefix_mid] or [Hmac_mid] over MD5, with the context
     itself rather than a packed one, so a seal can hand it to the
     one-pass kernel ([resume_md5], [finish_md5]).  [opad] is [""] for
     the prefix MAC. *)
type midstate =
  | Prefix_mid of Hash.midstate
  | Hmac_mid of { inner : Hash.midstate; opad : string; hash : Hash.t }
  | Md5_mid of { inner : Md5.ctx; opad : string }
  | Des_cbc_seed of Des.key

let md5_absorbed prefix =
  let ctx = Md5.init () in
  Md5.update ctx prefix;
  ctx

let prepare ?(algorithm = Prefix) hash ~key =
  let md5 = Hash.name hash = Md5.name in
  match algorithm with
  | Prefix when md5 -> Md5_mid { inner = md5_absorbed key; opad = "" }
  | Prefix -> Prefix_mid (Hash.midstate hash ~prefix:key)
  | Hmac ->
      let ipad, opad = hmac_key_pads hash ~key in
      if md5 then Md5_mid { inner = md5_absorbed ipad; opad }
      else Hmac_mid { inner = Hash.midstate hash ~prefix:ipad; opad; hash }
  | Des_cbc_mac -> Des_cbc_seed (des_cbc_prepare ~key)

let resume_md5 = function
  | Md5_mid { inner; _ } -> Md5.copy inner
  | _ -> invalid_arg "Mac.resume_md5: not an MD5 prefix or HMAC midstate"

let finish_md5 mid inner =
  match mid with
  | Md5_mid { opad = ""; _ } -> inner
  | Md5_mid { opad; _ } -> Md5.digest_list [ opad; inner ]
  | _ -> invalid_arg "Mac.finish_md5: not an MD5 prefix or HMAC midstate"

let compute_midstate mid parts =
  match mid with
  | Prefix_mid m -> Hash.resume_slices m parts
  | Hmac_mid { inner; opad; hash } ->
      Hash.digest_list hash [ opad; Hash.resume_slices inner parts ]
  | Md5_mid _ ->
      let ctx = resume_md5 mid in
      List.iter (Md5.feed_slice ctx) parts;
      finish_md5 mid (Md5.final ctx)
  | Des_cbc_seed k -> des_cbc_slices_keyed k parts

(* [expected] is typically the MAC field sliced out of the wire buffer and
   may be a truncated MAC (Section 5.3's header-overhead trade-off): the
   computed MAC is compared through a prefix view of the same (public)
   length, constant-time, so nothing is copied. *)
let verify_midstate mid parts ~(expected : Slice.t) =
  let mac = compute_midstate mid parts in
  let n = Slice.length expected in
  n <= String.length mac && Ct.equal_slice (Slice.v ~len:n mac) expected
