(* Armor — the suite's MAC and body transforms.  See armor.mli for the
   design; this file holds the per-flow state, the counter record
   (re-exported by Engine) and the seal, verify and open steps. *)

type counters = {
  mutable sends : int;
  mutable receives : int;
  mutable accepted : int;
  mutable flow_key_computations : int;
  mutable flow_key_recoveries : int;
  mutable macs_computed : int;
  mutable encryptions : int;
  mutable decryptions : int;
  drops : int array;
  mutable keysched_hits : int;
  mutable keysched_misses : int;
  mutable mac_midstate_hits : int;
  mutable mac_midstate_misses : int;
}

type flow_state = {
  fk : string;
  mutable des_sched : Fbsr_crypto.Des.key option;
  mutable mac_mid : Fbsr_crypto.Mac.midstate option;
      (* frozen per-flow MAC precomputation *)
}

let flow_state_of_key fk = { fk; des_sched = None; mac_mid = None }

type ctx = {
  counters : counters;
  nop : bool;
  mac_prelude : Bytes.t;
  iv_scratch : Bytes.t;
}

let make_ctx ~nop counters =
  {
    counters;
    nop;
    mac_prelude = Bytes.create Header.mac_prelude_size;
    iv_scratch = Bytes.create 8;
  }

(* --- per-flow lazy state, with the exact hit/miss accounting --- *)

let des_sched ctx entry =
  match entry.des_sched with
  | Some k ->
      ctx.counters.keysched_hits <- ctx.counters.keysched_hits + 1;
      k
  | None ->
      ctx.counters.keysched_misses <- ctx.counters.keysched_misses + 1;
      (* DES wants 8 key bytes; the flow key is a 16-byte MD5 digest.
         The paper's CryptoLib-based implementation takes the first 8
         with adjusted parity; the schedule never reads parity bits, so
         the adjustment is skipped and the key is the same.  The schedule
         reads them in place. *)
      let k = Fbsr_crypto.Des.of_prefix entry.fk in
      entry.des_sched <- Some k;
      k

let mac_midstate ctx entry =
  match entry.mac_mid with
  | Some m ->
      ctx.counters.mac_midstate_hits <- ctx.counters.mac_midstate_hits + 1;
      m
  | None ->
      ctx.counters.mac_midstate_misses <- ctx.counters.mac_midstate_misses + 1;
      let m = Fbsr_crypto.Mac.prepare ~key:entry.fk in
      entry.mac_mid <- Some m;
      m

let iv_of_confounder ctx ~confounder =
  Header.write_confounder_iv ctx.iv_scratch ~confounder;
  Bytes.unsafe_to_string ctx.iv_scratch

(* MAC input: auth (suite+flags) | confounder | timestamp | payload — the
   paper's Section 5.2 definition plus the authenticated algorithm field
   (see [Header.write_mac_prelude]).  Only the paper's suite computes a
   MAC, so the prelude's suite byte is its id.  The prelude is assembled
   in the engine's reusable scratch and the payload passed as a borrowed
   slice, so MAC computation allocates nothing beyond the digest itself.
   Bumps [macs_computed] and returns the flow's midstate. *)
let mac_state ctx entry ~secret ~confounder ~timestamp =
  ctx.counters.macs_computed <- ctx.counters.macs_computed + 1;
  Header.write_mac_prelude ctx.mac_prelude ~suite:Suite.paper_md5_des ~secret ~confounder
    ~timestamp;
  mac_midstate ctx entry

let prelude ctx = Fbsr_util.Slice.of_bytes_unsafe ctx.mac_prelude

(* The NOP MAC: all zero on the wire. *)
let nop_mac = String.make Header.mac_length '\000'

(* CBC padding always adds 1-8 bytes.  Kept for NOP too, so its
   [Engine.wire_overhead] is the paper suite's. *)
let max_body_growth = 8

let sealed_body_len ctx ~secret len =
  if secret && not ctx.nop then Fbsr_crypto.Des.padded_length len else len

(* The secret seal as a pending job.  The job takes its MAC inputs
   along — the midstate, resumed, with the prelude absorbed into its
   partial block, since [ctx.mac_prelude] is rewritten by the next seal
   — snapshots the IV, and fills the MAC slot and the body, reserved
   here as one region. *)
let defer ctx entry ~confounder ~timestamp ~payload w =
  let mid = mac_state ctx entry ~secret:true ~confounder ~timestamp in
  let md5 = Fbsr_crypto.Mac.resume_md5 mid in
  Fbsr_crypto.Md5.feed md5 (Bytes.unsafe_to_string ctx.mac_prelude) 0 Header.mac_prelude_size;
  ctx.counters.encryptions <- ctx.counters.encryptions + 1;
  let key = des_sched ctx entry and iv = iv_of_confounder ctx ~confounder in
  let src_len = String.length payload in
  let buf, pos =
    Fbsr_util.Byte_writer.reserve w
      (Header.mac_length + Fbsr_crypto.Des.padded_length src_len)
  in
  Fbsr_crypto.Fused.job ~md5 ~key ~iv ~src:payload ~src_pos:0 ~src_len ~dst:buf
    ~dst_pos:(pos + Header.mac_length) ~mac_dst:buf ~mac_pos:pos

let seal ctx entry ~secret ~confounder ~timestamp ~payload w =
  if ctx.nop then begin
    Fbsr_util.Byte_writer.bytes w nop_mac;
    Fbsr_util.Byte_writer.bytes w payload
  end
  else if secret then
    (* The lone job: the very path a flushed parked seal takes. *)
    ignore (Fbsr_crypto.Fused.run (defer ctx entry ~confounder ~timestamp ~payload w) : int)
  else begin
    let mid = mac_state ctx entry ~secret ~confounder ~timestamp in
    Fbsr_util.Byte_writer.bytes w
      (Fbsr_crypto.Mac.compute_midstate mid
         [ prelude ctx; Fbsr_util.Slice.of_string payload ]);
    (* The single mandatory write of the payload into the wire buffer. *)
    Fbsr_util.Byte_writer.bytes w payload
  end

let verify_mac ctx entry ~secret ~confounder ~timestamp ~payload ~expected =
  if ctx.nop then
    (* Still compared in constant time, so the NOP measurement keeps the
       comparison cost. *)
    Fbsr_crypto.Ct.equal_string_slice nop_mac expected
  else
    let mid = mac_state ctx entry ~secret ~confounder ~timestamp in
    Fbsr_crypto.Mac.verify_midstate mid [ prelude ctx; payload ] ~expected

let open_body ctx entry ~confounder ~(body : Fbsr_util.Slice.t) =
  ctx.counters.decryptions <- ctx.counters.decryptions + 1;
  let iv = iv_of_confounder ctx ~confounder in
  match
    Fbsr_crypto.Des.decrypt_cbc_sub ~iv (des_sched ctx entry) ~src:body.Fbsr_util.Slice.base
      ~pos:body.Fbsr_util.Slice.off ~len:body.Fbsr_util.Slice.len
  with
  | plaintext -> Ok plaintext
  | exception Invalid_argument _ -> Error ()
