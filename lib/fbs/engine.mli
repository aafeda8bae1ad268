(** The FBS protocol engine: FBSSend()/FBSReceive() of Figure 4 with the
    soft-state cache fast paths of Figure 6.

    Layer-independent: consumes attributes + payload bytes, produces wire
    bytes (security flow header followed by the protected body).  Keying
    may suspend on a certificate fetch, so the primary API is
    continuation-passing; [_sync] variants serve callers whose resolver
    completes inline. *)

(** Why a received datagram was refused.  Defined before {!error}, whose
    [Stale] and [Duplicate] win wherever the type is not known. *)
type cause =
  | Header  (** undecodable header or suite mismatch *)
  | Stale  (** timestamp outside the freshness window *)
  | Duplicate  (** strict-mode duplicate suppression *)
  | Keying  (** certificate fetch / verification failed *)
  | Mac  (** MAC verification failed *)
  | Decrypt  (** ciphertext would not decrypt *)

val causes : cause list

val cause_name : cause -> string
(** Its name in metrics ({!drop_metric}) and span outcomes. *)

type error =
  | Header_error of Header.error
  | Stale of { timestamp : int; now_minutes : int }
  | Duplicate
  | Keying_error of Keying.error
  | Bad_mac
  | Decrypt_error

val pp_error : Format.formatter -> error -> unit

val cause_of_error : error -> cause
(** The cause a receive error is counted under. *)

type counters = Armor.counters = {
  mutable sends : int;
  mutable receives : int;
  mutable accepted : int;
  mutable flow_key_computations : int;
  mutable flow_key_recoveries : int;
      (** Of the computations, those for a key the cache had seen before:
          recomputation after eviction/invalidation — soft-state recovery,
          never a hidden hard failure. *)
  mutable macs_computed : int;
  mutable encryptions : int;
  mutable decryptions : int;
  drops : int array;
      (** Received datagrams refused, one slot per {!cause}: read it with
          {!drop_count}.  A send-side keying failure is not counted. *)
  mutable bytes_copied : int;
      (** Payload bytes moved between buffers beyond the single mandatory
          write into the wire (or plaintext) buffer — the zero-copy
          datapath keeps this near zero for secret CBC traffic. *)
  mutable datapath_allocs : int;
      (** Buffers allocated on the seal/receive datapath: one per sealed
          datagram (the wire buffer), one per received secret datagram
          (the plaintext). *)
  mutable keysched_hits : int;
      (** Cipher/MAC key-schedule reuses from a flow entry (TFKC/RFKC) — the
          expansion was skipped. *)
  mutable keysched_misses : int;
      (** Key-schedule expansions paid: first use per flow entry, or
          recomputation after eviction. *)
  mutable mac_midstate_hits : int;
      (** Per-datagram MACs resumed from a flow entry's frozen
          precomputation (keyed-prefix hash state, HMAC inner state, or
          CBC-MAC schedule) — the key absorption was skipped. *)
  mutable mac_midstate_misses : int;
      (** MAC midstates built and cached: first MAC per flow entry, or
          recomputation after eviction. *)
  mutable rx_batch_deferred : int;
      (** Received datagrams whose body open was deferred into a
          {!Batch}'s open lane (each still pays its one plaintext
          allocation, counted in [datapath_allocs] at enqueue).  Seal-lane
          work is not counted. *)
  mutable rx_batch_flushes : int;
      (** {!Batch.flush} passes that found the open lane non-empty (one
          bitsliced decrypt sweep each). *)
}

val drop_count : counters -> cause -> int
(** Received datagrams refused for [cause]. *)

val drops_by_cause : counters -> (string * int) list
(** [(cause_name, count)] for every {!cause}, in {!causes} order. *)

val drops : counters -> int
(** Total receive-side rejections (sum of {!drops_by_cause}). *)

val drop_metric : cause -> string
(** The cause's registered count: [drop_metric Mac = "fbs.engine.drops.mac"]. *)

type t

val create :
  ?suite:Suite.t ->
  ?tfkc_sets:int ->
  ?rfkc_sets:int ->
  ?replay_window_minutes:int ->
  ?strict_replay:bool ->
  ?spans:Fbsr_util.Span.t ->
  ?flowstats:Flowstats.t ->
  keying:Keying.t ->
  fam:Fam.t ->
  unit ->
  t
(** The TFKC and RFKC are direct-mapped ([tfkc_sets]/[rfkc_sets] sets,
    default 128 each), as in Figure 6, and every engine draws its
    confounders from one fixed-seed generator.

    [spans] (default disabled) receives per-datagram causal spans.  Each
    {!send} opens a fresh trace id in the {!Fbsr_util.Span} sidecar
    context and records ["fam.classify"] (with [decision] ["fresh"] for a
    new flow), ["keying.derive"] (with TFKC/RFKC hit-or-miss, MKC/PVC/fetch
    attribution, and [recovered]: the cache miss was not cold, so this
    recomputes a key lost to eviction, invalidation or [Cache.clear];
    false on every hit) and ["engine.seal"]; each {!receive} records
    ["replay.check"] (its [verdict]; a stale one also carries the
    [timestamp] and [now_minutes] of the {!Stale} error) and exactly one
    terminal ["engine.receive"] span: ["delivered"], or the
    [Fbsr_util.Span.drop_outcome] of the {!cause_name} it was counted
    under.  A send-side keying failure ends its ["engine.send"] span
    with [Keying]'s outcome and bumps no drop counter.  With spans
    disabled the datapath pays one branch per stage and allocates
    nothing. *)

val local : t -> Principal.t
val suite : t -> Suite.t

val armor : t -> Armor.armor
(** The suite's registered driver — everything algorithm-specific the
    engine delegates to ({!Armor.S}). *)

val fam : t -> Fam.t
val keying : t -> Keying.t
type flow_entry
(** A TFKC/RFKC entry: the derived flow key plus lazily-expanded cipher
    and MAC key schedules.  The schedules share the entry's lifetime —
    cache eviction or invalidation drops key material and schedules
    together ([fbs.engine.keysched.{hits,misses}] observe the reuse). *)

val flow_entry_key : flow_entry -> string
(** The flow key the entry caches schedules for. *)

val tfkc : t -> (int64 * string * string, flow_entry) Cache.t
val rfkc : t -> (int64 * string * string, flow_entry) Cache.t
val replay : t -> Replay.t
val counters : t -> counters

val spans : t -> Fbsr_util.Span.t
(** The engine's span recorder ({!Fbsr_util.Span.none} when disabled). *)

val flowstats : t -> Flowstats.t
(** Per-flow heavy-hitter attribution ({!Flowstats.none} when disabled).
    The seal paths observe one datagram and [payload] bytes per sealed
    datagram under the flow's sfl; every receive-side drop but a
    [Header] one observes one drop; a
    post-eviction flow-key recomputation observes one degradation. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the engine's whole [fbs.*] subtree on [m]: its counters under
    [fbs.engine.] (each cause as its {!drop_metric}), all five
    cache levels under [fbs.cache.{tfkc,rfkc,inbound,pvc,mkc}.], replay
    under [fbs.replay.], FAM under [fbs.fam.] and keying under
    [fbs.keying.].  All pull-probes — zero cost on the protocol paths.
    Pass [Metrics.sub m "host.<addr>"] for a per-host view; registering
    several engines on one registry sums them. *)

(** Cross-flow batching: the feed for the bitsliced DES kernel, one queue
    with two lanes.

    CBC serializes cipher blocks within a flow but not across flows, and
    CBC decryption has no cross-block dependency at all.  So when a
    {!send} or {!receive} is given a batch, a {e secret} datagram whose
    armor has a batched kernel (the DES-CBC suites) parks its body
    transform here instead of running it inline:
    - the {b seal lane} holds fully assembled wires (header, MAC,
      reserved body region) whose encryption is pending;
    - the {b open lane} holds frames that passed the receive prologue —
      header decode, suite check, replay probe (which records nothing)
      and the RFKC probe, all at arrival, in arrival order — and whose
      decryption, MAC verify and replay commit are pending.
    Every other datagram (non-secret, NOP, 3DES, SHA1-CTR, refusals,
    ciphertexts rejected up front) resolves inline on the same call.

    {!flush} runs each lane's jobs in lockstep through
    {!Fbsr_crypto.Des_bitslice} and then completes the datagrams in
    enqueue order, each under its own trace id — so per-flow order holds
    and a caller never observes a half-sealed or half-opened datagram.
    Wires, verdicts, payload bytes, counters (beyond the open lane's
    [rx_batch_*] pair) and span terminals are identical to the inline
    path, datagram for datagram; the deferred ["engine.seal"] and
    ["engine.receive"] spans finish at the flush and so cover queue
    residence.

    The contract, for both lanes:
    - ownership: a batch is bound to the engine it was created for, and
      only that engine's {!send}/{!send_classified}/{!receive} may be
      given it ([Invalid_argument] otherwise) — its kernels come from
      that engine's armor and its counters are that engine's.
    - [threshold] (default 24): minimum jobs per kernel group to take the
      bitsliced path; smaller flushes run each job on the per-datagram
      kernel (identical bytes).
    - [capacity] (default {!Fbsr_crypto.Des_bitslice.lanes}): an enqueue
      that fills its lane flushes the batch before returning.
    - park: an enqueue that does not flush runs the {!set_on_park} hook.
      A batch keeps no clock: bounding a parked datagram's wait is the
      caller's job, by a {!flush} it schedules from that hook.
      A datagram whose keying suspended (cold flow) enqueues {e later},
      from the resumed continuation's event, after the {!send}/{!receive}
      call has returned — so [pending] will not have grown when that call
      returns, and a caller that arms its flush only on a synchronous
      [pending] check would never flush such a datagram.  Arm it from the
      hook, which always runs in the event that enqueued.
    - A parked datagram's continuation fires only from a flush.  Until
      then the queue borrows the receive wire, and a deferred plaintext
      string (the one {!Armor.batch_rx_ops.defer_open} returned) is not
      yet stable: its bytes are written by the kernel pass inside
      {!flush}, so nothing may read, hash or compare it before. *)
module Batch : sig
  type engine := t

  type t
  (** A two-lane pending-transform queue bound to one engine. *)

  val create : ?threshold:int -> ?capacity:int -> engine -> t

  val set_on_park : t -> (unit -> unit) -> unit
  (** Install the hook run after every enqueue that leaves a datagram
      parked (replacing any previous one). *)

  val pending : t -> int
  (** Datagrams currently parked, both lanes. *)

  val flush : t -> int * int
  (** Run every parked job, seal lane first, and complete the datagrams
      in enqueue order.  Returns the kernel's
      [(bitsliced_blocks, scalar_blocks)] split, summed over the lanes —
      [(0, 0)] when the queue was empty. *)
end

val send :
  ?batch:Batch.t ->
  t ->
  now:float ->
  attrs:Fam.attrs ->
  secret:bool ->
  payload:string ->
  ((string, error) result -> unit) ->
  unit
(** FBSSend(): classify into a flow, then {!send_classified}'s path —
    derive/cache the flow key, MAC, optionally encrypt; the continuation
    receives the wire bytes.  With [batch], a deferrable datagram's
    continuation fires from {!Batch.flush} (immediately when this enqueue
    fills the lane, else at a later [flush]). *)

val send_classified :
  ?batch:Batch.t ->
  ?confounder:int ->
  t ->
  now:float ->
  sfl:Sfl.t ->
  src:Principal.t ->
  dst:Principal.t ->
  secret:bool ->
  payload:string ->
  ((string, error) result -> unit) ->
  unit
(** {!send} for a datagram already classified by the caller's FAM — the
    sharded dispatcher's entry point ({!Sharded}), where the sfl must be
    known before a shard can be chosen.  Skips classification (and its
    span/trace events); everything from the TFKC lookup on is {!send}'s.
    [confounder] overrides the engine's own generator, inline or
    batched, so a dispatcher can draw confounders in input order, making
    sharded wire output byte-identical to a single engine's. *)

type accepted = { header : Header.t; payload : string; peer : Principal.t }

val receive :
  ?batch:Batch.t ->
  t ->
  now:float ->
  src:Principal.t ->
  wire:string ->
  ((accepted, error) result -> unit) ->
  unit
(** FBSReceive(), zero-copy: parses the header as a view of the wire,
    verifies the MAC against the wire bytes in place, and allocates only
    the plaintext of an accepted secret datagram (plus the payload copy
    of an accepted non-secret one); [accepted] owns its bytes.  With
    [batch], a deferrable frame's body open runs in the batch's open lane
    and its verdict arrives from {!Batch.flush}; prologue and keying
    refusals, and ciphertexts rejected up front (bad length, corrupt
    padding), still resolve inline, counter for counter. *)

val send_sync :
  t -> now:float -> attrs:Fam.attrs -> secret:bool -> payload:string ->
  (string, error) result

val receive_sync :
  t -> now:float -> src:Principal.t -> wire:string -> (accepted, error) result

val header_overhead : t -> int
(** Bytes the FBS header adds to every datagram. *)

val wire_overhead : t -> int
(** [header_overhead] plus the worst-case padding growth of an encrypted
    body: what the MSS calculation must subtract (the tcp_output fix). *)

(** Receive-side flow view: the per-flow statistics the receiver
    accumulates while passively demultiplexing on the sfl.  Soft state,
    bounded by an internal cache. *)
type inbound_flow = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_seen : float;
  mutable last_seen : float;
}

val inbound_flows : t -> (Sfl.t * Principal.t * inbound_flow) list
