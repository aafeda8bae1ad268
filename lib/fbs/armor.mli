(** Armor — the suite's MAC and body transforms.

    The engine keeps the algorithm-independent machinery (FAM, keying,
    caches, replay, header assembly, spans) and calls this module for
    MAC computation, body sizing and the body transform.  There are two
    suites, and they share one cipher and one MAC: the paper's keyed MD5
    with DES-CBC, and NOP, whose MAC is all zero and whose body is the
    payload ([ctx.nop]).

    The shape follows SST's [FlowArmor] ([txenc]/[rxdec] writing in
    place); here the datapath currency is the repository's
    {!Fbsr_util.Byte_writer}/{!Fbsr_util.Slice} zero-copy pair, and
    per-flow expensive state (the DES key schedule, the MAC midstate)
    lives in the {!flow_state} owned by the engine's TFKC/RFKC entries,
    so cache eviction drops key material and schedules together. *)

(** Engine counters, defined here so the seal and open steps account
    their work on the same record the engine owns ({!Engine.counters}
    re-exports this type, field for field). *)
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

(** A TFKC/RFKC entry: the derived flow key plus lazily-built expensive
    state — the DES key schedule and the frozen MAC midstate, each built
    on first use (a [keysched]/[macmid] miss) and resumed thereafter (a
    hit).  All fields are owned by the entry. *)
type flow_state = {
  fk : string;
  mutable des_sched : Fbsr_crypto.Des.key option;
  mutable mac_mid : Fbsr_crypto.Mac.midstate option;
}

val flow_state_of_key : string -> flow_state

(** Per-engine context handed to every call: the counters record,
    whether the engine's suite is NOP, and the engine's reusable scratch
    buffers (MAC prelude, IV).  The scratch is read through unsafe
    string views consumed before the next refill — the engine's
    established idiom. *)
type ctx = {
  counters : counters;
  nop : bool;
  mac_prelude : Bytes.t; (* Header.mac_prelude_size bytes *)
  iv_scratch : Bytes.t; (* 8 bytes *)
}

val make_ctx : nop:bool -> counters -> ctx

val max_body_growth : int
(** Worst-case body growth when sealing secret: DES-CBC padding, 8. *)

val sealed_body_len : ctx -> secret:bool -> int -> int
(** Exact on-wire body length for a payload of the given length: padded
    to whole DES blocks when secret and not NOP, else the length. *)

val defer :
  ctx ->
  flow_state ->
  confounder:int ->
  timestamp:int ->
  payload:string ->
  Fbsr_util.Byte_writer.t ->
  Fbsr_crypto.Fused.job
(** A secret seal (not NOP), left pending: reserves the MAC slot and the
    body region and returns the job that fills them.  Accounts the MAC
    and the encryption exactly as {!seal} would ([macs_computed],
    midstate and key-schedule hit/miss, [encryptions]); the job carries
    its own MAC inputs, so the [ctx] scratch is free for the next seal
    at once. *)

val seal :
  ctx ->
  flow_state ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  payload:string ->
  Fbsr_util.Byte_writer.t ->
  unit
(** Write the MAC, then exactly [sealed_body_len ctx ~secret
    (String.length payload)] body bytes: the payload verbatim when not
    encrypting, else the ciphertext.  A secret seal is a lone job:
    {!defer}, then {!Fbsr_crypto.Fused.run}. *)

val verify_mac :
  ctx ->
  flow_state ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  payload:Fbsr_util.Slice.t ->
  expected:Fbsr_util.Slice.t ->
  bool
(** Constant-time comparison of the wire MAC against the MAC resumed
    from the flow's midstate; bumps [macs_computed].  Under NOP, against
    the all-zero MAC. *)

val open_body :
  ctx ->
  flow_state ->
  confounder:int ->
  body:Fbsr_util.Slice.t ->
  (string, unit) result
(** Recover the plaintext of a secret body (only called when not NOP).
    Allocates no buffer but the returned string on the success path, and
    bumps [decryptions]. *)
