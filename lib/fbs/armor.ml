(* Armor modules — first-class cipher-suite drivers.  See armor.mli for
   the design; this file holds the shared per-flow state, the counter
   record (re-exported by Engine) and the helper layer every instance
   builds on.  The table of instances is [Armors]. *)

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

type aux = ..

type flow_state = {
  fk : string;
  mutable des_sched : Fbsr_crypto.Des.key option;
  mutable des3_sched : Fbsr_crypto.Des3.key option;
  mutable mac_mid : Fbsr_crypto.Mac.midstate option;
      (* frozen per-flow MAC precomputation, any suite *)
  mutable aux : aux option; (* armor-private per-flow state *)
}

let flow_state_of_key fk =
  { fk; des_sched = None; des3_sched = None; mac_mid = None; aux = None }

type ctx = {
  counters : counters;
  mac_prelude : Bytes.t;
  iv_scratch : Bytes.t;
}

let make_ctx counters =
  {
    counters;
    mac_prelude = Bytes.create Header.mac_prelude_size;
    iv_scratch = Bytes.create 8;
  }

(* --- shared per-flow lazy state, with the exact hit/miss accounting --- *)

let des3_key_of_flow_key flow_key =
  (* 3DES wants 24 key bytes; expand the flow key by hashing (standard
     KDF-by-rehash) and force odd parity on every byte.  Assembled in an
     exact-capacity writer: only the key bytes actually used are written
     (byte-identical to [String.sub (flow_key ^ Md5.digest flow_key) 0 24]). *)
  let w = Fbsr_util.Byte_writer.create ~capacity:24 () in
  let n = min (String.length flow_key) 24 in
  Fbsr_util.Byte_writer.substring w flow_key 0 n;
  if n < 24 then
    Fbsr_util.Byte_writer.substring w (Fbsr_crypto.Md5.digest flow_key) 0 (24 - n);
  Fbsr_crypto.Des3.of_string
    (Fbsr_crypto.Des.adjust_parity (Fbsr_util.Byte_writer.finalize w))

let des_sched ctx entry =
  match entry.des_sched with
  | Some k ->
      ctx.counters.keysched_hits <- ctx.counters.keysched_hits + 1;
      k
  | None ->
      ctx.counters.keysched_misses <- ctx.counters.keysched_misses + 1;
      (* DES wants 8 key bytes; the flow key is a 16-byte (MD5) or
         20-byte (SHA-1) digest.  The paper's CryptoLib-based
         implementation takes the first 8 with adjusted parity; the
         schedule never reads parity bits, so the adjustment is skipped
         and the key is the same.  The schedule reads them in place. *)
      let k = Fbsr_crypto.Des.of_prefix entry.fk in
      entry.des_sched <- Some k;
      k

let des3_sched ctx entry =
  match entry.des3_sched with
  | Some k ->
      ctx.counters.keysched_hits <- ctx.counters.keysched_hits + 1;
      k
  | None ->
      ctx.counters.keysched_misses <- ctx.counters.keysched_misses + 1;
      let k = des3_key_of_flow_key entry.fk in
      entry.des3_sched <- Some k;
      k

let mac_midstate ctx entry ~(suite : Suite.t) =
  match entry.mac_mid with
  | Some m ->
      ctx.counters.mac_midstate_hits <- ctx.counters.mac_midstate_hits + 1;
      m
  | None ->
      ctx.counters.mac_midstate_misses <- ctx.counters.mac_midstate_misses + 1;
      let m =
        Fbsr_crypto.Mac.prepare ~algorithm:suite.Suite.mac_algorithm
          suite.Suite.mac_hash ~key:entry.fk
      in
      entry.mac_mid <- Some m;
      m

let iv_of_confounder ctx ~confounder =
  Header.write_confounder_iv ctx.iv_scratch ~confounder;
  Bytes.unsafe_to_string ctx.iv_scratch

(* MAC input: auth (suite+flags) | confounder | timestamp | payload — the
   paper's Section 5.2 definition plus the authenticated algorithm field
   (see [Header.auth_bytes]).  The prelude is assembled in the engine's
   reusable scratch and the payload passed as a borrowed slice, so MAC
   computation allocates nothing beyond the digest itself. *)
let mac_state ctx entry ~suite ~secret ~confounder ~timestamp =
  ctx.counters.macs_computed <- ctx.counters.macs_computed + 1;
  Header.write_mac_prelude ctx.mac_prelude ~suite ~secret ~confounder ~timestamp;
  mac_midstate ctx entry ~suite

let compute_mac ctx entry ~suite ~secret ~confounder ~timestamp
    ~(payload : Fbsr_util.Slice.t) =
  let mid = mac_state ctx entry ~suite ~secret ~confounder ~timestamp in
  let parts = [ Fbsr_util.Slice.of_bytes_unsafe ctx.mac_prelude; payload ] in
  Fbsr_crypto.Mac.compute_midstate mid parts

let verify_mac ctx entry ~suite ~secret ~confounder ~timestamp
    ~(payload : Fbsr_util.Slice.t) ~(expected : Fbsr_util.Slice.t) =
  ctx.counters.macs_computed <- ctx.counters.macs_computed + 1;
  Header.write_mac_prelude ctx.mac_prelude ~suite ~secret ~confounder ~timestamp;
  let parts = [ Fbsr_util.Slice.of_bytes_unsafe ctx.mac_prelude; payload ] in
  (* Constant-time comparison of the (possibly truncated) wire MAC
     against the matching prefix of the resumed computation. *)
  Fbsr_crypto.Mac.verify_midstate (mac_midstate ctx entry ~suite) parts ~expected

(* --- batching hook --- *)

type job = ..

type batch_ops = {
  defer :
    ctx ->
    flow_state ->
    confounder:int ->
    timestamp:int ->
    payload:string ->
    Fbsr_util.Byte_writer.t ->
    job;
  run : job -> job option -> int;
}

module type S = sig
  val suite : Suite.t
  val encrypts : bool
  val max_body_growth : int
  val sealed_body_len : secret:bool -> int -> int

  val seal :
    ctx ->
    flow_state ->
    secret:bool ->
    confounder:int ->
    timestamp:int ->
    payload:string ->
    Fbsr_util.Byte_writer.t ->
    unit

  val verify_mac :
    ctx ->
    flow_state ->
    secret:bool ->
    confounder:int ->
    timestamp:int ->
    payload:Fbsr_util.Slice.t ->
    expected:Fbsr_util.Slice.t ->
    bool

  val open_body :
    ctx ->
    flow_state ->
    confounder:int ->
    body:Fbsr_util.Slice.t ->
    (string, unit) result

  val batch : batch_ops option
end

type armor = (module S)
