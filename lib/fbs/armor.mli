(** Armor modules — first-class cipher-suite drivers.

    The paper's algorithm-identification field implies pluggable suites;
    an armor is the pluggable unit: everything algorithm-specific about
    sealing and opening a datagram body, packaged behind one module type
    and selected through a registry keyed by suite id.  The engine keeps
    the algorithm-independent machinery (FAM, keying, caches, replay,
    header assembly, spans) and delegates MAC computation, body sizing
    and body transformation to the armor of its configured suite — so a
    new suite is a leaf change: a new module plus a registry entry, with
    no edits to the engine's seal/receive paths.

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
  mutable bytes_copied : int;
  mutable datapath_allocs : int;
  mutable keysched_hits : int;
  mutable keysched_misses : int;
  mutable mac_midstate_hits : int;
  mutable mac_midstate_misses : int;
  mutable rx_batch_deferred : int;
  mutable rx_batch_flushes : int;
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

val des3_key_of_flow_key : string -> Fbsr_crypto.Des3.key
(** 24 key bytes by KDF-rehash of the flow key, parity-adjusted. *)

val des_sched : ctx -> flow_state -> Fbsr_crypto.Des.key
val des3_sched : ctx -> flow_state -> Fbsr_crypto.Des3.key

val mac_midstate : ctx -> flow_state -> suite:Suite.t -> Fbsr_crypto.Mac.midstate
(** The flow's frozen MAC precomputation, built on first use
    ([mac_midstate_misses]) and resumed thereafter ([mac_midstate_hits]). *)

val iv_of_confounder : ctx -> confounder:int -> string
(** The duplicated-confounder IV, refreshed in [ctx.iv_scratch] and read
    through an unsafe view — consume before the next armor call. *)

val compute_mac :
  ctx ->
  flow_state ->
  suite:Suite.t ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  payload:Fbsr_util.Slice.t ->
  string
(** Untruncated MAC over prelude | payload, resumed from the flow's
    midstate; bumps [macs_computed]. *)

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
(** A deferred body-transformation job (either direction).  Armors that
    support cross-flow batching extend this with their kernel's job
    types; a batch only ever mixes jobs from one engine (hence one
    armor), so the armor's [run]/[run_rx] may assume its own
    constructors. *)

type batch_ops = {
  defer :
    ctx ->
    flow_state ->
    confounder:int ->
    payload:string ->
    Fbsr_util.Byte_writer.t ->
    job;
      (** Reserve the body region in the writer and return the pending
          job that will fill it; accounts the encryption exactly as the
          inline path would ([encryptions], key-schedule hit/miss). *)
  run : threshold:int -> job array -> int * int;
      (** Run every job to completion; returns the kernel's
          [(batched, scalar)] block split. *)
}

(** The receive-side mirror of {!batch_ops}: deferring a body {e open}
    instead of a body seal. *)
type batch_rx_ops = {
  defer_open :
    ctx ->
    flow_state ->
    confounder:int ->
    body:Fbsr_util.Slice.t ->
    (job * string, unit) result;
      (** Validate the ciphertext (exactly as the inline [open_body]
          would — a frame the inline path rejects must return [Error]
          here, with identical counter accounting) and return the
          pending job plus the plaintext string the job will fill.  The
          string's bytes are complete only after [run_rx]; the body
          slice is borrowed by the job until then.  The string may alias
          the job's mutable output buffer (an [unsafe_to_string] of it),
          so it must be treated as write-once-at-flush: the queue owner
          must not read, hash or compare it before [run_rx], and must
          never deliver it from a job that was dropped without running.
          Bumps [decryptions] and key-schedule hit/miss like the inline
          path. *)
  run_rx : threshold:int -> job array -> int * int;
      (** Run every pending open; returns the kernel's
          [(batched, scalar)] block split. *)
}

(** The armor interface proper. *)
module type S = sig
  val suite : Suite.t

  val auth_prefix_len : int
  (** Leading payload bytes left cleartext (but MACed) when sealing
      secret — the SST authenticate-only prefix.  0 for full-body
      ciphers. *)

  val encrypts : bool
  (** Whether [secret] datagrams carry an encrypted body.  [false] for
      the NOP armor: the receive path then treats the body as plaintext
      regardless of the secret flag. *)

  val max_body_growth : int
  (** Worst-case body growth when sealing secret (cipher padding). *)

  val sealed_body_len : secret:bool -> int -> int
  (** Exact on-wire body length for a payload of the given length. *)

  val seal_mac :
    ctx ->
    flow_state ->
    secret:bool ->
    confounder:int ->
    timestamp:int ->
    payload:Fbsr_util.Slice.t ->
    string
  (** The MAC to write (untruncated; the engine writes the suite's
      [mac_length] prefix). *)

  val verify_mac :
    ctx ->
    flow_state ->
    secret:bool ->
    confounder:int ->
    timestamp:int ->
    payload:Fbsr_util.Slice.t ->
    expected:Fbsr_util.Slice.t ->
    bool

  val seal_body :
    ctx ->
    flow_state ->
    secret:bool ->
    confounder:int ->
    payload:string ->
    Fbsr_util.Byte_writer.t ->
    unit
  (** Write exactly [sealed_body_len ~secret (String.length payload)]
      bytes into the writer: the payload verbatim when not encrypting,
      else the ciphertext (preferably straight into a reserved region). *)

  val open_body :
    ctx ->
    flow_state ->
    confounder:int ->
    body:Fbsr_util.Slice.t ->
    (string, unit) result
  (** Recover the plaintext of a secret body (only called when
      [encrypts]).  Must allocate exactly the returned string on the
      success path and bump [decryptions]. *)

  val batch : batch_ops option
  (** Cross-flow batching hook; [None] when the cipher has no batched
      kernel (or nothing to defer). *)

  val batch_rx : batch_rx_ops option
  (** Receive-side cross-flow batching hook; [None] when body opens
      cannot be deferred. *)
end

type armor = (module S)

(** {1 Registry} *)

val register : armor -> unit
(** Keyed by [suite.id]; later registrations replace earlier ones. *)

val of_id : int -> armor option
val of_suite : Suite.t -> armor
(** @raise Invalid_argument when no armor is registered for the suite. *)

val all : unit -> armor list
(** Registered armors, sorted by suite id. *)
