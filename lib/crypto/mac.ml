(* Message authentication codes.

   The paper defines the FBS MAC as a keyed hash with the key prepended:

       MAC = HMAC(K_f | confounder | timestamp | payload)

   where "HMAC" in the paper's notation is simply "some one-way
   cryptographic hash function" applied to the key-prefixed message — i.e.
   the 1996-era prefix MAC (keyed MD5), not RFC 2104 HMAC.  [prefix]
   reproduces the paper exactly; [hmac] is the modern construction
   (RFC 2104), which the [ablation-mac] experiment times against it.

   [prefix] and [hmac] take string parts.  The FBS datapath MACs through a
   per-flow midstate instead ([prepare], [compute_midstate]), which folds
   over borrowed [Slice.t] views of the wire buffer with zero
   concatenation or copying. *)

open Fbsr_util

let prefix (hash : Hash.t) ~key parts = Hash.digest_list hash (key :: parts)

let hmac (module H : Hash.S) ~key parts =
  let block = H.block_size in
  let key = if String.length key > block then H.digest key else key in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xor_pad byte =
    String.init block (fun i -> Char.chr (Char.code key.[i] lxor byte))
  in
  let inner = H.digest_list (xor_pad 0x36 :: parts) in
  H.digest_list [ xor_pad 0x5c; inner ]

(* The per-flow midstate of the paper's keyed-MD5 MAC: the MD5 context
   after absorbing the key prefix, so a datagram's MAC resumes from a
   copy of it instead of re-absorbing K_f. *)
type midstate = Md5.ctx

let prepare ~key =
  let ctx = Md5.init () in
  Md5.update ctx key;
  ctx

let resume_md5 = Md5.copy

let compute_midstate mid parts =
  let ctx = Md5.copy mid in
  List.iter (Md5.feed_slice ctx) parts;
  Md5.final ctx

(* [expected] is typically the MAC field sliced out of the wire buffer and
   may be a truncated MAC (Section 5.3's header-overhead trade-off): the
   computed MAC is compared through a prefix view of the same (public)
   length, constant-time, so nothing is copied. *)
let verify_midstate mid parts ~(expected : Slice.t) =
  let mac = compute_midstate mid parts in
  let n = Slice.length expected in
  n <= String.length mac && Ct.equal_slice (Slice.v ~len:n mac) expected
