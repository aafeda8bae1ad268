(** One-call wiring of a simulated FBS site: shared segment, key server
    (CA), and FBS-enabled hosts with transport stacks and MKDs. *)

open Fbsr_netsim

type node = {
  host : Host.t;
  stack : Stack.t;
  mkd : Mkd.t;
  private_value : Fbsr_crypto.Dh.private_value;
  spans : Fbsr_util.Span.t;  (** the host's flight recorder (may be [none]) *)
}

type t

val create :
  ?seed:int ->
  ?bandwidth_bps:float ->
  ?group_bits:int ->
  ?config:Stack.config ->
  ?mkd_config:Mkd.config ->
  ?faults:Link.profile ->
  ?metrics:Fbsr_util.Metrics.t ->
  ?span_capacity:int ->
  ?span_cost_clock:(unit -> float) ->
  ?span_sample:int ->
  unit ->
  t
(** [group_bits = 0] (default) uses the fast 61-bit test group; [1024]
    selects Oakley group 2; other values generate a fresh safe-prime
    group.  [mkd_config] sets every node's certificate-fetch retry/backoff
    policy.  [faults] attaches a fault-injection {!Fbsr_netsim.Link} (with
    a per-host seed derived from [seed]) to the egress of every host added
    afterwards — including the key server, so certificate traffic suffers
    the same network as the datagrams.

    [metrics] (default: a fresh private registry, readable via {!metrics})
    receives every component's counters twice: once at the bare site-wide
    names ("fbs.engine.sends", "netsim.link.corrupted", ... — summed
    across hosts) and once under a per-host "host.<addr>." prefix.

    [span_capacity] (default 0 = causal tracing disabled) gives every host
    — including the key server — a bounded per-datagram flight recorder of
    that capacity ({!Fbsr_util.Span}) on the shared simulated clock,
    threaded to the host's engine, stack, MKD and fault-injection link;
    each recorder's per-stage latency histograms land in the site registry
    under "span.stage.<stage>".  [span_cost_clock] (default: the simulated
    clock) supplies the per-stage cost measurement — pass a wall clock
    (e.g. [Unix.gettimeofday]) to measure real per-stage CPU latency from
    a simulated run.

    [span_sample] (default 1 = record everything) turns on adaptive span
    sampling: one shared {!Fbsr_util.Span.sampler} head-keeps 1-in-N
    chains by trace-id hash and tail-keeps {e every} chain whose terminal
    span is anomalous (a ["drop:*"] outcome, a forgery/replay verdict, or
    a degradation mark), with the full sender-side causal context parked
    until the verdict arrives.  The sampler is shared across all of the
    site's recorders because a chain's terminal span lands on the
    receiver (or a dropping link), not the sender.  Per-stage latency
    histograms observe every span regardless of the sampling decision.
    @raise Invalid_argument on negative [span_capacity] or
    [span_sample < 1]. *)

val add_host : t -> name:string -> addr:string -> node
val add_plain_host : t -> name:string -> addr:string -> Host.t
(** GENERIC (no security) host, for the Figure 8 baseline. *)

val ca_addr : t -> Addr.t
val engine : t -> Engine.t
val medium : t -> Medium.t

val links : t -> Link.t list
(** The fault-injection links attached so far (empty without [faults]). *)

val link_stats : t -> Link.stats
(** Aggregate fault statistics across every link in the site. *)

val group : t -> Fbsr_crypto.Dh.group
val authority : t -> Fbsr_cert.Authority.t

val metrics : t -> Fbsr_util.Metrics.t
(** The site's registry (the one passed to {!create}, or the private
    default). *)

val span_sampler : t -> Fbsr_util.Span.sampler option
(** The shared adaptive sampler, when [span_sample > 1] was requested —
    read its {!Fbsr_util.Span.sampler_stats} to audit keep/discard
    decisions. *)

val collect_spans : t -> Fbsr_util.Span.span list
(** Merge every recorder's retained spans into one globally ordered list
    (see {!Fbsr_util.Span.collect}) — the input to the exporters. *)

val ca_server : t -> Ca_server.t
val run : ?until:float -> t -> unit
val now : t -> float
