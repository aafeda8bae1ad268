(** Armor modules — first-class cipher-suite drivers.

    The paper's algorithm-identification field implies pluggable suites;
    an armor is the pluggable unit: everything algorithm-specific about
    sealing and opening a datagram body, packaged behind one module type
    and looked up by suite in the static table {!Armors.all}.  The engine
    keeps the algorithm-independent machinery (FAM, keying, caches,
    replay, header assembly, spans) and delegates MAC computation, body
    sizing and body transformation to the armor of its configured suite
    — so a new suite is a leaf change: a new module plus one entry in
    that table, with no edits to the engine's seal/receive paths.

    The shape follows SST's [FlowArmor] ([txenc]/[rxdec] writing in
    place, plus an authenticate-only prefix for header words that must
    stay readable in flight); here the datapath currency is the
    repository's {!Fbsr_util.Byte_writer}/{!Fbsr_util.Slice} zero-copy
    pair, and per-flow expensive state (cipher key schedules, MAC
    midstates) lives in the {!flow_state} owned by the engine's
    TFKC/RFKC entries, so cache eviction drops key material and
    schedules together. *)

(** Engine counters, defined here so armors can account their work on
    the same record the engine owns ({!Engine.counters} re-exports this
    type, field for field). *)
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
(** Armor-private per-flow state (e.g. a keystream midstate).  Each
    armor extends this with its own constructor; the slot lives in
    {!flow_state} so it shares the cache entry's lifetime. *)

(** A TFKC/RFKC entry: the derived flow key plus lazily-built expensive
    state — cipher key schedules, the frozen MAC midstate, and an
    armor-private [aux] slot.  All fields are owned by the entry. *)
type flow_state = {
  fk : string;
  mutable des_sched : Fbsr_crypto.Des.key option;
  mutable des3_sched : Fbsr_crypto.Des3.key option;
  mutable mac_mid : Fbsr_crypto.Mac.midstate option;
  mutable aux : aux option;
}

val flow_state_of_key : string -> flow_state

(** Per-engine context handed to every armor call: the counters record
    and the engine's reusable scratch buffers (MAC prelude, IV).  The
    scratch is read through unsafe string views consumed before the next
    refill — the engine's established idiom. *)
type ctx = {
  counters : counters;
  mac_prelude : Bytes.t; (* Header.mac_prelude_size bytes *)
  iv_scratch : Bytes.t; (* 8 bytes *)
}

val make_ctx : counters -> ctx

(** {1 Shared helpers}

    The per-flow lazy-build-and-cache pattern with its exact counter
    accounting, shared by armor instances so hit/miss bookkeeping stays
    uniform across suites. *)

val des_sched : ctx -> flow_state -> Fbsr_crypto.Des.key

val des3_sched : ctx -> flow_state -> Fbsr_crypto.Des3.key
(** 24 key bytes by KDF-rehash of the flow key, parity-adjusted. *)

val iv_of_confounder : ctx -> confounder:int -> string
(** The duplicated-confounder IV, refreshed in [ctx.iv_scratch] and read
    through an unsafe view — consume before the next armor call. *)

val mac_state :
  ctx ->
  flow_state ->
  suite:Suite.t ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  Fbsr_crypto.Mac.midstate
(** The start of a MAC computation: bumps [macs_computed], writes the
    prelude into [ctx.mac_prelude] and returns the flow's frozen MAC
    precomputation (built on first use, [mac_midstate_misses]; resumed
    thereafter, [mac_midstate_hits]).  The MAC is over the prelude, then
    the payload, from that midstate. *)

val compute_mac :
  ctx ->
  flow_state ->
  suite:Suite.t ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  payload:Fbsr_util.Slice.t ->
  string
(** Untruncated MAC over prelude | payload, from {!mac_state}. *)

val verify_mac :
  ctx ->
  flow_state ->
  suite:Suite.t ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  payload:Fbsr_util.Slice.t ->
  expected:Fbsr_util.Slice.t ->
  bool
(** Constant-time comparison of the (possibly truncated) wire MAC
    against the resumed computation; bumps [macs_computed]. *)

(** {1 Batching} *)

type job = ..
(** A deferred body seal.  Armors that support cross-flow batching
    extend this with their kernel's job type; a batch only ever holds
    jobs from one engine (hence one armor), so the armor's [run] may
    assume its own constructor. *)

type batch_ops = {
  defer :
    ctx ->
    flow_state ->
    confounder:int ->
    timestamp:int ->
    payload:string ->
    Fbsr_util.Byte_writer.t ->
    job;
      (** The secret seal's part of {!S.seal}, left pending: writes or
          reserves the MAC, reserves the body region, and returns the
          job that will fill what it reserved.  Accounts the MAC and the
          encryption exactly as the inline path would ([macs_computed],
          midstate and key-schedule hit/miss, [encryptions]); a job
          carries its own MAC inputs, so the [ctx] scratch is free for
          the next seal at once. *)
  run : job -> job option -> int;
      (** [run parked partner] runs the parked job beside its partner
          (the next deferred seal), or alone when a flush finds it
          without one; returns the blocks encrypted. *)
}

(** The armor interface proper. *)
module type S = sig
  val suite : Suite.t

  val encrypts : bool
  (** Whether [secret] datagrams carry an encrypted body.  [false] for
      the NOP armor: the receive path then treats the body as plaintext
      regardless of the secret flag. *)

  val max_body_growth : int
  (** Worst-case body growth when sealing secret (cipher padding). *)

  val sealed_body_len : secret:bool -> int -> int
  (** Exact on-wire body length for a payload of the given length. *)

  val seal :
    ctx ->
    flow_state ->
    secret:bool ->
    confounder:int ->
    timestamp:int ->
    payload:string ->
    Fbsr_util.Byte_writer.t ->
    unit
  (** Write the MAC (the suite's [mac_length] prefix of it), then exactly
      [sealed_body_len ~secret (String.length payload)] body bytes: the
      payload verbatim when not encrypting, else the ciphertext
      (preferably straight into a reserved region).  An armor with a
      {!batch} seals a secret datagram as its lone job: [defer], then
      [run] alone. *)

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
  (** Recover the plaintext of a secret body (only called when
      [encrypts]).  Allocates no buffer but the returned string on the
      success path, and bumps [decryptions]. *)

  val batch : batch_ops option
  (** Cross-flow batching hook; [None] when the cipher has no batched
      kernel (or nothing to defer). *)
end

type armor = (module S)
