(** Hundreds of concurrent ACK-clocked bulk transfers between one pair of
    FBS hosts across a shared lossy segment — the closed-loop stress test
    for the Reno-style {!Fbsr_netsim.Minitcp} riding on the secured
    datapath.

    Every connection sends a deterministic per-connection payload and the
    receiver's bytes are compared against it, so [ok] means 100%%
    delivered-byte integrity on every transfer (not merely the right
    byte counts), with every client connection fully closed.  The CLI
    wrapper turns [ok = false] into a non-zero exit, which is what the
    bench-smoke CI probe gates on. *)

type conn_row = {
  index : int;
  bytes_expected : int;
  bytes_received : int;
  intact : bool;  (** received bytes equal the expected payload *)
  closed : bool;  (** client side reached Closed *)
  retransmits : int;
  fast_retransmits : int;
  timeouts : int;
  cwnd : int;  (** final congestion window, bytes *)
  ssthresh : int;  (** final slow-start threshold, bytes *)
  segments_out : int;
}

type result = {
  transfers : int;
  bytes_per_transfer : int;
  loss : float;  (** per-frame drop probability on every host's egress *)
  seed : int;
  suite : string;  (** the paper's suite, by {!Fbsr_fbs.Suite.name} *)
  elapsed_s : float;  (** simulated seconds until the last client close *)
  delivered_bytes : int;
  goodput_bps : float;  (** delivered payload bits over simulated time *)
  link_offered : int;
  link_dropped : int;
  total_retransmits : int;
  total_fast_retransmits : int;
  total_timeouts : int;
  rows : conn_row list;
  failures : string list;  (** violated invariants; empty iff [ok] *)
  ok : bool;
  timeseries : Fbsr_util.Timeseries.t;
      (** flight recorder over the site registry
          ({!Fbsr_util.Timeseries.none} unless [telemetry_cadence]) *)
  health : Fbsr_fbs.Health.t;
      (** rule monitor over [timeseries] ({!Fbsr_fbs.Health.none} unless
          [telemetry_cadence]) *)
}

val run :
  ?transfers:int ->
  ?bytes_per_transfer:int ->
  ?loss:float ->
  ?seed:int ->
  ?telemetry_cadence:float ->
  unit ->
  result
(** Defaults: 200 transfers of 32 KiB each, 1%% frame loss,
    the paper's MD5/DES suite securing every datagram.
    [telemetry_cadence] arms the flight recorder + health monitor at
    that many simulated seconds per snapshot.
    @raise Invalid_argument if [transfers] or [bytes_per_transfer] < 1. *)

val report :
  ?transfers:int ->
  ?bytes_per_transfer:int ->
  ?loss:float ->
  ?seed:int ->
  ?telemetry:bool ->
  ?json:string ->
  unit ->
  result
(** {!run}, print a human summary, optionally write the fbsr-transfers/1
    document (run parameters, aggregate delivery and retransmission
    statistics, one row per connection) to [json].
    [telemetry] (default off) runs with a 1 s telemetry cadence and adds
    the health verdicts to the printout and a [telemetry] member to the
    artifact. *)
