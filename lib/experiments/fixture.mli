(** Shared engine-pair fixture for benchmarks and ablations: two FBS
    engines wired to a synchronous in-process certificate authority — the
    common setup bench/main.ml and the experiment harness both need. *)

type t = {
  src : Fbsr_fbs.Principal.t;
  dst : Fbsr_fbs.Principal.t;
  sender : Fbsr_fbs.Engine.t;
  receiver : Fbsr_fbs.Engine.t;
}

val mtu_payload : string
(** An MTU-sized (1460-byte) payload. *)

val engine_pair :
  ?seed:int ->
  ?suite:Fbsr_fbs.Suite.t ->
  ?replay_window_minutes:int ->
  ?strict_replay:bool ->
  ?src:string ->
  ?dst:string ->
  ?spans:Fbsr_util.Span.t ->
  ?flowstats:(unit -> Fbsr_fbs.Flowstats.t) ->
  unit ->
  t
(** Enroll both principals with a fresh 512-bit authority over the fast
    61-bit test group and build one engine per side.  Deterministic in
    [seed].  [spans] (default disabled) is shared by both engines;
    [flowstats] (default disabled) builds each engine's own heavy-hitter
    sketch set — called once per engine, sender first. *)

type sharded = {
  sh_src : Fbsr_fbs.Principal.t;
  sh_dst : Fbsr_fbs.Principal.t;
  tx : Fbsr_fbs.Sharded.t;  (** sender side *)
  rx : Fbsr_fbs.Sharded.t;  (** receiver side *)
}

val sharded_pair :
  ?seed:int ->
  ?suite:Fbsr_fbs.Suite.t ->
  ?nshards:int ->
  ?fst_bits:int ->
  ?fam_threshold:float ->
  ?replay_window_minutes:int ->
  ?strict_replay:bool ->
  ?src:string ->
  ?dst:string ->
  ?spans:(int -> Fbsr_util.Span.t) ->
  ?flowstats:(int -> Fbsr_fbs.Flowstats.t) ->
  unit ->
  sharded
(** The sharded sibling of {!engine_pair}: one authority and two
    principals, each side a {!Fbsr_fbs.Sharded.t} whose per-shard
    engines share nothing (own keying over the shared CA, own caches,
    span recorder via [spans shard] and heavy-hitter sketches via
    [flowstats shard] — both default disabled).  Shard masters
    are pre-derived synchronously, so no shard domain ever runs DH.
    [fst_bits] sizes the sender dispatcher's FST at [2^fst_bits]
    entries (default 8 — raise it for million-flow workloads);
    [fam_threshold] overrides its idle-timeout THRESHOLD (the sweeper
    study's knob).
    Deterministic in [seed] for a fixed shard count.
    @raise Failure if master derivation fails. *)

val warm_pair :
  ?seed:int ->
  ?suite:Fbsr_fbs.Suite.t ->
  ?secret:bool ->
  ?payload:string ->
  unit ->
  t * Fbsr_fbs.Fam.attrs * string
(** {!engine_pair} plus one send/receive round trip at [now = 60.0] so
    every cache is warm; returns the pair, the attrs used, and the wire
    bytes of the warm-up datagram (for receive-side benchmarks).
    @raise Failure if the warm-up round trip fails. *)

val warm_flows :
  ?seed:int ->
  ?suite:Fbsr_fbs.Suite.t ->
  ?secret:bool ->
  ?payload:string ->
  ?flows:int ->
  ?spans:Fbsr_util.Span.t ->
  ?flowstats:(unit -> Fbsr_fbs.Flowstats.t) ->
  unit ->
  t * Fbsr_fbs.Fam.attrs array
(** {!engine_pair} plus one send/receive round trip per flow — [flows]
    (default 63) five-tuple flows differing only in source port — so
    the sender's TFKC holds that many warm
    entries.  The setup for cross-flow batched sealing.  [spans] and
    [flowstats] are forwarded to {!engine_pair}.
    @raise Failure if any warm-up round trip fails. *)
