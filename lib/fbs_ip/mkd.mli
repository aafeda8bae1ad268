(** Master key daemon (client side): fetches public-value certificates from
    the CA over UDP with coalescing and retransmission — bounded retries,
    exponential backoff, deterministic seeded jitter; implements
    [Fbsr_fbs.Keying.resolver]. *)

open Fbsr_netsim

type config = {
  timeout : float;  (** first-attempt timeout, seconds *)
  max_attempts : int;  (** total transmissions before giving up *)
  backoff : float;  (** timeout multiplier per retry (>= 1) *)
  max_timeout : float;  (** ceiling on the backed-off timeout *)
  jitter : float;  (** fractional +- spread on each timeout, in [0,1) *)
}

val default_config : config
(** 2 s initial timeout, 3 attempts, 2x backoff capped at 30 s, 10% jitter. *)

type t

val create :
  ?local_port:int ->
  ?config:config ->
  ?seed:int ->
  ?metrics:Fbsr_util.Metrics.t ->
  ?spans:Fbsr_util.Span.t ->
  ca_addr:Addr.t ->
  ca_port:int ->
  Host.t ->
  t
(** The host must already have a UDP stack installed.  [seed] decorrelates
    the jitter stream (mixed with the host address by default).
    [metrics] (scope it first, e.g. [Metrics.sub m "fbs_ip.mkd"]) receives
    [fetches]/[retransmissions]/[failures] probes and the owned
    [backoff_seconds] histogram of armed retransmission timeouts.
    [spans] (default disabled) records one ["mkd.fetch"]
    span per coalesced fetch, begin-to-completion across every
    retransmission, under a fresh trace id of its own; the request frames
    (and the CA's replies) travel the network under that id.
    @raise Invalid_argument on a nonsensical [config]. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the counter probes on an additional registry scope (the
    [backoff_seconds] histogram stays in the registry given to
    {!create}). *)

val config : t -> config
val resolver : t -> Fbsr_fbs.Keying.resolver

type stats = { fetches : int; retransmissions : int; failures : int }

val stats : t -> stats
