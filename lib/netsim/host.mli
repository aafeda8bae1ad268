(** Simulated host IP stack with 4.4BSD-style hook points.

    The output path mirrors ip_output's three logical parts (process /
    fragment / transmit) and the input path mirrors ip_input's (validate /
    reassemble / dispatch).  Security hooks run between parts 1-2 on output
    and parts 2-3 on input — the exact insertion points of the paper's
    FBSSend()/FBSReceive() kernel hooks.  A hook answers through a
    continuation, so a datagram may wait (for key material, say) and then
    carry on along the same path. *)

type verdict =
  | Pass of Ipv4.header * string
      (** Carry on with this (possibly rewritten) header and payload. *)
  | Drop of string  (** Counted in [drops_hook]. *)

type hook = Ipv4.header -> string -> (verdict -> unit) -> unit
(** A hook answers each datagram through the continuation exactly once:
    before it returns, later in the same {!burst} (an output hook that
    seals a burst's datagrams together), or from a later event (one that
    waited for key material) — the simulator's analogue of the paper's
    blocking Upcall().  An output [Pass] goes on to fragmentation and
    transmission, an input [Pass] to protocol dispatch; either way the
    host sets the header's total length to that of the payload passed.
    Each host builds its two continuations once. *)

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
    IP destination is unchanged so a router on the segment can forward. *)

val set_link : t -> Link.t -> unit
(** Route every egress frame through a fault-injection {!Link} (applied
    after fragmentation, before the medium). *)

val clear_link : t -> unit

val set_output_hook : t -> hook -> unit
val set_input_hook : t -> hook -> unit

val set_burst_end : t -> (unit -> unit) -> unit
(** Install the function run when the outermost {!burst} ends, while it
    is still open — where an output hook answers the datagrams it still
    holds. *)

val clear_hooks : t -> unit
(** Remove both hooks and the burst-end function. *)

val register_protocol : t -> protocol:int -> (t -> Ipv4.header -> string -> unit) -> unit

exception Send_error of string

val burst : t -> (unit -> 'a) -> 'a
(** [burst t f] runs [f] as one output burst: the output hook may answer
    the datagrams of [f]'s {!ip_output} calls after [f] returns (or
    raises), from the burst-end function, before [burst] returns.
    Bursts nest; only the outermost one ends.  Simulated time does not
    move inside [f], so a burst changes no timing, only when within the
    event the frames reach the medium.

    A [Pass] that is too big with DF set raises {!Send_error} at the end
    of the outermost burst it arrived in, so the burst's later datagrams
    still go out; only the burst's first such error is raised.  One that
    arrives from a later event is dropped.  Either way [send_errors]
    counts it. *)

val ip_output :
  t -> ?dont_fragment:bool -> protocol:int -> dst:Addr.t -> string -> unit
(** A burst of one (see {!burst}).
    @raise Send_error if unattached, or if DF is set and the datagram
    exceeds the MTU: at once on a host with no output hook, else as
    {!burst} says. *)

val ip_input : t -> string -> unit
(** Entry point for raw packets from the medium (exposed for tests). *)

val set_extension : t -> tag:string -> exn -> unit
val find_extension : t -> tag:string -> exn option
(** Per-host extension state for the transport stacks and FBS engine
    (exception-as-existential storage). *)
