(** Application-layer FBS: secure datagram sockets over UDP with named
    principals and conversation-tag flows — the paper's layer-independence
    claim as a second, kernel-free instantiation. *)

open Fbsr_netsim

type received = {
  src : Fbsr_fbs.Principal.t;
  src_addr : Addr.t;
  src_port : int;
  payload : string;
  secret : bool;
}

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable rejected : int;
  mutable errors : int;
}

type t

val create :
  ?threshold:float ->
  ?replay_window_minutes:int ->
  host:Host.t ->
  port:int ->
  local:Fbsr_fbs.Principal.t ->
  group:Fbsr_crypto.Dh.group ->
  private_value:Fbsr_crypto.Dh.private_value ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  resolver:Fbsr_fbs.Keying.resolver ->
  unit ->
  t
(** The host must already have a UDP stack installed. *)

val on_receive : t -> (received -> unit) -> unit

val send :
  t ->
  dst:Fbsr_fbs.Principal.t ->
  dst_addr:Addr.t ->
  ?dst_port:int ->
  tag:string ->
  ?secret:bool ->
  string ->
  unit
(** Datagrams sharing [tag] (to the same destination principal) form one
    flow; a new tag starts a new flow with a fresh key — no messages
    exchanged. *)

val engine : t -> Fbsr_fbs.Engine.t
val counters : t -> counters
val local : t -> Fbsr_fbs.Principal.t

(**/**)

val encode_envelope : src:Fbsr_fbs.Principal.t -> string -> string
val decode_envelope : string -> (string * string) option
