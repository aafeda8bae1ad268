(** The FBS-to-IP mapping (paper Section 7): FBS header between the IPv4
    header and the transport payload, ip_output/ip_input hooks, 5-tuple +
    THRESHOLD flow policy, secure flow bypass, MSS fix, and datagram
    parking across MKD fetches. *)

open Fbsr_netsim

type config = {
  suite : Fbsr_fbs.Suite.t;
  threshold : float;
  fst_size : int;
  replay_window_minutes : int;
  strict_replay : bool;
  secret_policy : protocol:int -> src_port:int -> dst_port:int -> bool;
  bypass : Addr.t -> bool;
  tfkc_sets : int;
  rfkc_sets : int;
  cache_assoc : int;
  max_flow_bytes : int option;
  max_flow_life : float option;
  keying_fetch_retries : int;
      (** Extra keying-layer attempts after a failed certificate fetch
          (on top of the MKD's own retransmissions). *)
  combined_fast_path : bool;
  batched_rx : bool;
      (** Route receive-side body opens through the open lane of an
          {!Fbsr_fbs.Engine.Batch} (default [false]): frames
          arriving within 1 ms of simulated time of each other decrypt
          in one cross-flow bitsliced sweep and are delivered in arrival
          order through the parked-datagram upcall.  Verdicts and bytes
          are identical to the inline path; delivery of a deferrable
          frame lags arrival by at most 1 ms. *)
}

val default_config :
  ?suite:Fbsr_fbs.Suite.t ->
  ?threshold:float ->
  ?fst_size:int ->
  ?replay_window_minutes:int ->
  ?strict_replay:bool ->
  ?secret_policy:(protocol:int -> src_port:int -> dst_port:int -> bool) ->
  ?bypass:(Addr.t -> bool) ->
  ?tfkc_sets:int ->
  ?rfkc_sets:int ->
  ?cache_assoc:int ->
  ?max_flow_bytes:int ->
  ?max_flow_life:float ->
  ?keying_fetch_retries:int ->
  ?combined_fast_path:bool ->
  ?batched_rx:bool ->
  unit ->
  config

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable suspended_out : int;
  mutable suspended_in : int;
  mutable resumed : int;
  mutable dropped_error : int;
  mutable bypassed : int;
  mutable rx_batched : int;
      (** Frames parked in the receive batch ([batched_rx] mode) and
          delivered from its flush. *)
}

type t

val install :
  ?config:config ->
  ?sfl_seed:int ->
  ?spans:Fbsr_util.Span.t ->
  private_value:Fbsr_crypto.Dh.private_value ->
  group:Fbsr_crypto.Dh.group ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  ca_hash:Fbsr_crypto.Hash.t ->
  resolver:Fbsr_fbs.Keying.resolver ->
  Host.t ->
  t
(** [spans] (default disabled) is the host's per-datagram flight
    recorder: threaded to the engine (see {!Fbsr_fbs.Engine.create}) for the
    classify/derive/seal/replay/receive stages, and used directly by the
    input hook for the ["stack.decap"] stage. *)

val uninstall : t -> unit

val engine : t -> Fbsr_fbs.Engine.t
val counters : t -> counters

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the stack's counters under [fbs_ip.stack.] and the engine's
    whole [fbs.*] subtree on [m] (see {!Fbsr_fbs.Engine.register_metrics}).
    Pass [Metrics.sub m "host.<addr>"] for a per-host view. *)

val host : t -> Host.t
val policy_state : t -> Fbsr_fbs.Policy_five_tuple.t
val fast_path : t -> Fast_path.t option
val principal_of_addr : Addr.t -> Fbsr_fbs.Principal.t
val peek_ports : protocol:int -> string -> int * int

val start_sweeper : ?period:float -> t -> unit
(** Run Figure 7's standalone sweeper every [period] (default 60 s)
    simulated seconds.  Note: once started it reschedules forever, so
    [Engine.run] without [~until] will not terminate. *)
