(** Miniature TCP: handshake, cumulative ACK, a Reno-style
    congestion-controlled sliding window (slow start, AIMD, fast
    retransmit on three duplicate ACKs), adaptive RTO, out-of-order
    reassembly, FIN teardown.

    Exists to run ttcp-style bulk transfers (Figure 8) and to exercise the
    paper's tcp_output MSS fix: the MSS calculation subtracts the security
    header allowance published via {!set_mss_reduction}. *)

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Closed

type conn

val install : Host.t -> unit
val listen : Host.t -> port:int -> (conn -> unit) -> unit
val connect : Host.t -> dst:Addr.t -> dst_port:int -> conn

val send : conn -> string -> unit
val close : conn -> unit
val abort : conn -> unit

val on_receive : conn -> (string -> unit) -> unit
val on_established : conn -> (unit -> unit) -> unit
val on_close : conn -> (unit -> unit) -> unit

val state : conn -> state

val mss : conn -> int
(** Current sender MSS.  Recomputed from the host's published
    security-header allowance on every read — like the paper's
    tcp_output, segment sizing honors a {!set_mss_reduction} published
    after the connection was established. *)

val retransmits : conn -> int
(** Total retransmitted segments (timeout, fast retransmit, and
    recovery hole-filling). *)

val fast_retransmits : conn -> int
(** Fast-retransmit episodes entered on the third duplicate ACK. *)

val timeouts : conn -> int
(** Retransmission-timer expirations. *)

val cwnd : conn -> int
(** Current congestion window, bytes. *)

val ssthresh : conn -> int
(** Current slow-start threshold, bytes. *)

val rto : conn -> float
(** Current retransmission timeout, seconds. *)

val segments_out : conn -> int
val local_port : conn -> int
val peer : conn -> Addr.t * int

val set_mss_reduction : Host.t -> int -> unit
(** Published by the security layer (FBS header size); the paper's
    tcp_output change. *)

val mss_reduction : Host.t -> int
