(** The FBS-to-IP mapping (paper Section 7): FBS header between the IPv4
    header and the transport payload, ip_output/ip_input hooks, 5-tuple +
    THRESHOLD flow policy, secure flow bypass, MSS fix, and datagrams
    that wait across MKD fetches.  Every datagram is answered through the
    host's continuation ({!Fbsr_netsim.Host.hook}) when its engine
    completion runs.  Within an output burst ({!Fbsr_netsim.Host.burst})
    secret datagrams' DES-CBC chains pair on the two-chain kernel; each
    datagram is answered the moment its seal completes, in call order,
    and burst end seals an odd one out.  A datagram whose keying waited
    seals or opens when its key arrives and is answered from that event;
    the host applies its own {!Fbsr_netsim.Host.Send_error} rule to
    it. *)

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
  max_flow_bytes : int option;
  max_flow_life : float option;
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
  ?max_flow_bytes:int ->
  ?max_flow_life:float ->
  unit ->
  config

type counters = {
  mutable sent : int;
      (** Datagrams sealed and handed to IP, on time or resumed.  A
          DF-too-big one that IP then refuses is counted here too; as a
          failure it is counted once, by the host's [send_errors]. *)
  mutable received : int;  (** Datagrams verified and handed up to dispatch. *)
  mutable suspended_out : int;
      (** Outbound datagrams whose keying waited for a master key. *)
  mutable suspended_in : int;  (** Inbound datagrams that waited likewise. *)
  mutable resumed : int;
      (** Of the datagrams that waited, those sent or received once their
          key arrived. *)
  mutable dropped_error : int;
      (** Datagrams the engine refused: a send whose keying failed, a
          receive it dropped for any cause.  Each is also one
          [drops_hook] on the host. *)
  mutable bypassed : int;
      (** Datagrams to or from the key server, in either direction,
          passed without FBS (the secure flow bypass). *)
}

type t

val install :
  ?config:config ->
  ?spans:Fbsr_util.Span.t ->
  private_value:Fbsr_crypto.Dh.private_value ->
  group:Fbsr_crypto.Dh.group ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  ca_hash:Fbsr_crypto.Hash.t ->
  resolver:Fbsr_fbs.Keying.resolver ->
  Host.t ->
  t
(** Every host's first stack seeds its sfl allocator with the same
    constant, so two senders may pick the same sfl: receivers key
    per-flow state on (sfl, peer); a stack installed again draws other
    sfls ({!sfl_allocator}).  A certificate miss calls [resolver] once;
    its retransmissions are the resolver's (the MKD's) job.

    [spans] (default disabled) is the host's per-datagram flight
    recorder: threaded to the engine (see {!Fbsr_fbs.Engine.create}) for the
    classify/derive/seal/replay/receive stages, and used directly by the
    input hook for the ["stack.decap"] stage. *)

val uninstall : t -> unit

val sfl_allocator : Host.t -> int -> Fbsr_fbs.Sfl.allocator
(** [sfl_allocator host base]: an sfl allocator for an FBS layer on
    [host].  The host's first one from [base] is seeded with [base]
    itself; each later one mixes in how many came before, so a layer
    re-installed after a reset never replays its predecessor's sfls
    (paper Section 5.3). *)

val engine : t -> Fbsr_fbs.Engine.t
val counters : t -> counters

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the stack's counters under [fbs_ip.stack.] and the engine's
    whole [fbs.*] subtree on [m] (see {!Fbsr_fbs.Engine.register_metrics}).
    Pass [Metrics.sub m "host.<addr>"] for a per-host view. *)

val policy_state : t -> Fbsr_fbs.Policy_five_tuple.t
val peek_ports : protocol:int -> string -> int * int
