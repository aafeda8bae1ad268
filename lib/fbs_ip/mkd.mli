(** Master key daemon (client side): fetches public-value certificates from
    the CA over UDP through a {!Fbsr_netsim.Request} table — coalescing,
    bounded retries, exponential backoff, deterministic seeded jitter;
    implements [Fbsr_fbs.Keying.resolver]. *)

open Fbsr_netsim

type config = {
  timeout : float;  (** first-attempt timeout, seconds *)
  max_attempts : int;  (** total transmissions before giving up *)
}
(** The timeout of transmission n is [min 30 (timeout * 2^(n-1))] seconds
    spread by +-10% jitter; only the first timeout and the attempt budget
    vary. *)

val default_config : config
(** 2 s initial timeout, 3 attempts: a fetch through a dead network fails
    after 2 + 4 + 8 = 14 s +- 10% of simulated time.  The KDC and Photuris
    baselines retransmit on this schedule too. *)

type t

val create :
  ?local_port:int ->
  ?config:config ->
  ?metrics:Fbsr_util.Metrics.t ->
  ?spans:Fbsr_util.Span.t ->
  ca_addr:Addr.t ->
  ca_port:int ->
  Host.t ->
  t
(** The host must already have a UDP stack installed.  The jitter stream
    is seeded from the host address, so hosts do not retransmit in
    lockstep.  A negative reply from the CA fails the fetch it names at
    once.  [metrics] (scope it first, e.g. [Metrics.sub m "fbs_ip.mkd"]) receives
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

val resolver : t -> Fbsr_fbs.Keying.resolver

type stats = { fetches : int; retransmissions : int; failures : int }

val stats : t -> stats
