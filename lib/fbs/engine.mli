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

type error =
  | Header_error of Header.error
  | Stale of { timestamp : int; now_minutes : int }
  | Duplicate
  | Keying_error of Keying.error
  | Bad_mac
  | Decrypt_error

val pp_error : Format.formatter -> error -> unit

type counters = Armor.counters = {
  mutable sends : int;
  mutable receives : int;
  mutable accepted : int;
  mutable flow_key_computations : int;
  mutable flow_key_recoveries : int;
      (** Of the computations, those for a key the cache had held before:
          recomputation after eviction/invalidation — soft-state recovery,
          never a hidden hard failure.  A key that was never cached (a
          receive-side key whose earlier datagrams were all refused) is
          not a recovery. *)
  mutable macs_computed : int;
  mutable encryptions : int;
  mutable decryptions : int;
  drops : int array;
      (** Received datagrams refused, one slot per {!cause}: read it with
          {!drop_count}.  A send-side keying failure is not counted. *)
  mutable keysched_hits : int;
      (** Cipher/MAC key-schedule reuses from a flow entry (TFKC/RFKC) — the
          expansion was skipped. *)
  mutable keysched_misses : int;
      (** Key-schedule expansions paid: first use per flow entry, or
          recomputation after eviction. *)
  mutable mac_midstate_hits : int;
      (** Per-datagram MACs resumed from a flow entry's frozen
          precomputation (the MD5 state after the key prefix) — the key
          absorption was skipped. *)
  mutable mac_midstate_misses : int;
      (** MAC midstates built and cached: first MAC per flow entry, or
          recomputation after eviction. *)
}

val drop_count : counters -> cause -> int
(** Received datagrams refused for [cause]. *)

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
(** [suite] (default {!Suite.paper_md5_des}) is the one suite the engine
    seals under and accepts.  The TFKC and RFKC are direct-mapped
    ([tfkc_sets]/[rfkc_sets] sets, default 128 each), as in Figure 6, and every engine draws its
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
    [Fbsr_util.Span.drop_outcome] of the {!cause} it was counted under
    (its {!drop_metric} suffix).  A send-side keying failure ends its
    ["engine.send"] span with [Keying]'s outcome and bumps no drop
    counter.  With spans disabled the datapath pays one branch per stage
    and allocates nothing. *)

val fam : t -> Fam.t
val keying : t -> Keying.t
type flow_entry
(** A TFKC/RFKC entry: the derived flow key plus lazily-expanded cipher
    and MAC key schedules.  The schedules share the entry's lifetime —
    cache eviction or invalidation drops key material and schedules
    together ([fbs.engine.keysched.{hits,misses}] observe the reuse). *)

val flow_entry_key : flow_entry -> string
(** The flow key the entry caches schedules for. *)

(** The TFKC/RFKC key of a flow on one host: the sfl and the peer (the
    destination in the TFKC, the source in the RFKC).  The engine builds
    one per datagram, and its lookup, its join of a pending master-key
    fetch and the insert of a derived entry all use it, so each side
    computes one CRC-32 index and one fingerprint per datagram.  The
    local principal is the engine's own: it enters [index] but is not
    stored. *)
module Key : sig
  type t = private {
    sfl : Sfl.t;
    peer : Principal.t;
    index : int;
        (** CRC-32 over the sfl (8 bytes, big-endian), the peer's name and
            the local name, as Section 5.3 recommends for correlated
            inputs: the set index. *)
    fingerprint : int;
        (** [Fbsr_util.Fingerprint.(string ~seed:(int64 sfl) peer)]: the
            miss classifier's name for the key.  Two sfls of one peer
            that differ in their low 63 bits never share it. *)
  }

  val make : local:Principal.t -> sfl:Sfl.t -> peer:Principal.t -> t

  val index : t -> int
  val fingerprint : t -> int

  val equal : t -> t -> bool
  (** Same sfl and peer (the fingerprints are compared first). *)
end

val tfkc : t -> (Key.t, flow_entry) Cache.t
val rfkc : t -> (Key.t, flow_entry) Cache.t
val replay : t -> Replay.t
val counters : t -> counters

val flowstats : t -> Flowstats.t
(** Per-flow heavy-hitter attribution ({!Flowstats.none} when disabled).
    The seal paths observe one datagram and [payload] bytes per sealed
    datagram under the flow's sfl; every receive-side drop but a
    [Header] one observes one drop; a
    post-eviction flow-key recomputation observes one degradation. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the engine's whole [fbs.*] subtree on [m]: its counters under
    [fbs.engine.] (each cause as its {!drop_metric}), all four
    cache levels under [fbs.cache.{tfkc,rfkc,pvc,mkc}.], replay
    under [fbs.replay.], FAM under [fbs.fam.] and keying under
    [fbs.keying.].  All pull-probes — zero cost on the protocol paths.
    Pass [Metrics.sub m "host.<addr>"] for a per-host view; registering
    several engines on one registry sums them. *)

(** Cross-flow batching of seals: a one-datagram slot where a secret
    datagram parks its MAC and body encryption until the next one runs
    beside it.

    CBC serializes cipher blocks within a flow but not across flows.  So
    when a {!send} is given a batch, a {e secret} datagram of an engine
    whose suite encrypts (the paper's, not NOP) is assembled as a wire
    (header, reserved MAC slot and body region) whose MAC and encryption
    are pending.  Every other datagram (non-secret, NOP, keying
    refusals) seals inline on the same call, and every {!receive} opens
    inline.

    The contract:
    - pairing: a pending seal that finds the slot empty parks there.  The
      next one runs beside it at once on the two-chain CBC kernel
      ({!Fbsr_crypto.Des.encrypt_cbc_pair}, the MACs first), and both
      datagrams complete on that call, each under its own trace id.
      {!Batch.flush} runs a lone parked datagram alone, in one pass with
      the MAC's MD5 beside the CBC chain ({!Fbsr_crypto.Fused.run}), the
      very job an unbatched seal runs.  The slot is emptied before any
      completion runs, so a completion may send through the batch again.
      Wires, counters and span terminals are identical to the inline
      path, datagram for datagram; the deferred ["engine.seal"] span
      finishes at completion and so covers the wait in the slot.
    - call order: a send that cannot park (its seal is inline, or its
      keying refused it) flushes a parked datagram before its own
      continuation fires.  So every continuation of a send whose keying
      did not suspend fires in call order, and per-flow order holds.
    - park only inside a send call: a datagram whose keying suspended
      (cold flow) seals from the resumed continuation, after its {!send}
      call has returned; it seals inline and never parks, so nothing
      parks where no caller is left to flush it.  A batch keeps no
      clock: the caller flushes what its own calls parked.
    - ownership: a batch is bound to the engine it was created for, and
      only that engine's {!send}/{!send_classified} may be given it
      ([Invalid_argument] otherwise) — its jobs use that engine's flow
      state and its counters are that engine's.
    - A parked datagram's continuation fires only when its job runs.
      Until then the wire handed to it is not yet stable: its MAC and
      body bytes are written by the kernel. *)
module Batch : sig
  type engine := t

  type t
  (** A pending-seal slot bound to one engine. *)

  val create : engine -> t

  val pending : t -> int
  (** Datagrams currently parked: 0 or 1. *)

  val flush : t -> int
  (** Run the parked job alone and complete its datagram.  Returns the
      blocks the kernel ran (the sealed body's padding block included) —
      [0] when the slot was empty. *)
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
    continuation fires when its job runs: at once when this call pairs
    it with a parked datagram, else from the next send on the batch or
    {!Batch.flush}. *)

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
  t ->
  now:float ->
  src:Principal.t ->
  wire:string ->
  ((accepted, error) result -> unit) ->
  unit
(** FBSReceive(), zero-copy: parses the header as a view of the wire,
    verifies the MAC against the wire bytes in place, and allocates no
    buffer but the plaintext of an accepted secret datagram (or the
    payload copy of an accepted non-secret one); [accepted] owns its
    bytes.  On an
    RFKC miss the flow key is derived and the datagram verified under it;
    the entry is cached only if the datagram is delivered, so a datagram
    with a forged sfl costs a key derivation but never evicts another
    flow's entry.  The continuation runs before [receive] returns unless
    the flow's master key needs a certificate fetch; then it runs once
    the fetch resolves.  The datagrams of one flow that waited on
    the same fetch, on either side, derive its key once: the first caches
    the entry (a send at once, a receive once it verified) before the
    next resumes, and the rest join it, each still counting its miss as
    cold. *)

val send_sync :
  t -> now:float -> attrs:Fam.attrs -> secret:bool -> payload:string ->
  (string, error) result

val receive_sync :
  t -> now:float -> src:Principal.t -> wire:string -> (accepted, error) result

val wire_overhead : t -> int
(** The FBS header's bytes plus the worst-case padding growth of an
    encrypted body: what the MSS calculation must subtract (the
    tcp_output fix). *)
