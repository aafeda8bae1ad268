(** Simulated host IP stack with 4.4BSD-style hook points.

    The output path mirrors ip_output's three logical parts (process /
    fragment / transmit) and the input path mirrors ip_input's (validate /
    reassemble / dispatch).  Security hooks run between parts 1-2 on output
    and parts 2-3 on input — the exact insertion points of the paper's
    FBSSend()/FBSReceive() kernel hooks. *)

type hook_result =
  | Pass of Ipv4.header * string
      (** Carry on with this (possibly rewritten) header and payload. *)
  | Held
      (** The hook owns the datagram.  An output hook finishes it through
          {!transmit_prepared} before the enclosing {!burst} ends; an
          input hook through {!deliver_up}.  Not a drop: no stats move. *)
  | Drop of string  (** Counted in [drops_hook]. *)

type hook = Ipv4.header -> string -> hook_result

type stats = {
  mutable packets_out : int;
  mutable packets_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable fragments_out : int;
  mutable reassembled : int;
  mutable drops_bad : int;
  mutable drops_hook : int;
  mutable drops_no_proto : int;
  mutable drops_not_mine : int;
  mutable send_errors : int;
}

type t

val create : name:string -> addr:Addr.t -> ?mtu:int -> Engine.t -> t
val attach : t -> Medium.t -> unit

val name : t -> string
val addr : t -> Addr.t
val engine : t -> Engine.t
val mtu : t -> int
val stats : t -> stats

val now : t -> float
(** This host's local clock: simulated time plus its clock offset. *)

val set_clock_offset : t -> float -> unit
(** Skew this host's clock (FBS only assumes loose synchronization; this
    knob quantifies "loose"). *)

val clock_offset : t -> float

val set_gateway : t -> prefix:int -> gateway:Addr.t -> unit
(** Off-subnet destinations are framed to [gateway] at the link layer; the
    IP destination is unchanged so a {!Router} can forward. *)

val set_link : t -> Link.t -> unit
(** Route every egress frame through a fault-injection {!Link} (applied
    after fragmentation, before the medium). *)

val clear_link : t -> unit
val link : t -> Link.t option

val set_output_hook : t -> hook -> unit
val set_input_hook : t -> hook -> unit

val set_burst_end : t -> (unit -> unit) -> unit
(** Install the function run when the outermost {!burst} ends — where an
    output hook that returned [Held] finishes its datagrams. *)

val clear_hooks : t -> unit
(** Remove both hooks and the burst-end function. *)

val register_protocol : t -> protocol:int -> (t -> Ipv4.header -> string -> unit) -> unit

exception Send_error of string

val burst : t -> (unit -> 'a) -> 'a
(** [burst t f] runs [f] as one output burst: the datagrams its
    {!ip_output} calls hand to the output hook may be held until [f]
    returns (or raises), and then finish, in call order, before [burst]
    returns.  Bursts nest; only the outermost one ends.  Simulated time
    does not move inside [f], so a burst changes no timing, only when
    within the event the frames reach the medium. *)

val ip_output :
  t -> ?dont_fragment:bool -> ?ttl:int -> protocol:int -> dst:Addr.t -> string -> unit
(** A burst of one (see {!burst}): inside an enclosing burst a held
    datagram transmits when that burst ends, else before [ip_output]
    returns.
    @raise Send_error if unattached, or if DF is set and the datagram
    exceeds the MTU; for a datagram the output hook held, from the end
    of the outermost burst. *)

val ip_input : t -> string -> unit
(** Entry point for raw packets from the medium (exposed for tests). *)

val transmit_prepared : t -> Ipv4.header -> string -> unit
(** Output parts 2+3 only (fragment + transmit), skipping the output hook:
    lets a security layer finish a datagram it held, once sealed. *)

val deliver_up : t -> Ipv4.header -> string -> unit
(** Input part 3 only (protocol dispatch), skipping the input hook. *)

val loopback : t -> protocol:int -> dst:Addr.t -> string -> unit

val set_extension : t -> tag:string -> exn -> unit
val find_extension : t -> tag:string -> exn option
(** Per-host extension state for the transport stacks and FBS engine
    (exception-as-existential storage). *)
