(** Domain-sharded datapath: N independent engines, each owning the
    TFKC/RFKC/replay/key-schedule state for the flows whose sfl hashes to
    it, driven in bulk-synchronous batches with one domain per shard.

    Shard selection is [crc32(sfl) mod nshards].  The sfl is the first
    field of the wire header, so the receive side routes without parsing;
    on the send side the dispatcher runs FAM classification itself (the
    sfl {e determines} the shard, so classification cannot happen inside
    one).  Because every datagram of a flow carries the same sfl, a flow
    lives its whole life on one shard: per-flow datagram order, replay
    windows, cached key schedules and MAC midstates never cross shards,
    and each shard's counters account exactly for its own flows.

    The dispatcher owns the confounder generator and draws one value per
    datagram in input order, so the wire bytes of a batch are
    byte-identical whatever the shard count — the differential suite
    asserts sharded ≡ single-shard output.

    On OCaml 4.14 {!Fbsr_util.Domain_shim} runs the shards one after
    another on the calling domain: same shard count, same results, no
    Domains. *)

type t

val create :
  ?nshards:int ->
  ?confounder_seed:int ->
  engine:(int -> Engine.t) ->
  fam:Fam.t ->
  unit ->
  t
(** [create ~engine ~fam ()] builds one engine per shard via [engine i]
    (each must have its own caches, scratch, keying and span recorder —
    shards share nothing) plus the dispatcher's [fam].  [nshards]
    defaults to {!Fbsr_util.Domain_shim.recommended_domain_count}.  The
    per-shard engines' own confounder generators are unused on this path
    (the dispatcher's, seeded from [confounder_seed], replaces them).

    The engines' keying resolvers must complete synchronously: a shard
    domain cannot park a datagram waiting for a certificate fetch.
    @raise Invalid_argument if [nshards < 1]. *)

val nshards : t -> int

val engine : t -> int -> Engine.t
val engines : t -> Engine.t array
val fam : t -> Fam.t

val set_tick_hook : t -> (now:float -> unit) -> unit
(** Install a telemetry tick: called on the dispatching domain after each
    {!send_all}/{!receive_all} batch joins (shards quiescent), with the
    batch's [now].  Scenario drivers hang {!Fbsr_util.Timeseries.tick}
    and health evaluation here. *)

val flowstats : t -> Flowstats.t
(** Exact {!Flowstats.merge} of every shard engine's sketches (sfl
    sharding keeps their key spaces disjoint).  Call between batches. *)

val shard_of_sfl : t -> Sfl.t -> int
(** [crc32(sfl) mod nshards] — the owning shard. *)

val send_all :
  t ->
  now:float ->
  secret:bool ->
  (Fam.attrs * string) array ->
  (string, Engine.error) result array
(** Seal a batch: classify every datagram (in input order, drawing its
    confounder), partition by owning shard, run the shards in parallel,
    and return per-datagram results in input order.  Within a shard,
    datagrams are processed in input order — so per-flow order is
    globally preserved.

    Each shard seals inline with the dispatcher's pre-drawn confounders
    ({!Engine.send_classified}[ ~confounder]), so wires are
    byte-identical to a single engine's {!Engine.send}.
    @raise Invalid_argument if an engine's keying resolver defers. *)

val receive_all :
  t ->
  now:float ->
  src:Principal.t ->
  string array ->
  (Engine.accepted, Engine.error) result array
(** Verify/decrypt a batch: route each wire by peeking the sfl (first 8
    bytes; short wires go to shard 0, whose header decode rejects them),
    run the shards in parallel, return results in input order.  Within
    a shard each frame runs {!Engine.receive} in input order, so
    verdicts, payload bytes and counters are a single engine's, frame
    for frame. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register every shard engine on [m] twice: once at the root — probes
    registered under one name sum on read, so the bare [fbs.*] tree
    becomes the aggregate view — and once under [shard.<i>.] for the
    per-shard view.  The differential suite checks the per-shard
    [shard.<i>.fbs.*] probes sum to the aggregate.  For one dispatcher's
    summed counters, read [fbs.engine.*] with {!Fbsr_util.Metrics.get}
    from a registry holding only that dispatcher. *)
