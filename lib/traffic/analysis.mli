(** Trace summary statistics (packet mix, sizes, interarrivals, per-service
    breakdown). *)

type per_port = { port : int; service : string; packets : int; bytes : int }

type t = {
  packets : int;
  bytes : int;
  duration : float;
  udp_packets : int;
  tcp_packets : int;
  hosts : int;
  mean_rate_bps : float;
  mean_packet_size : float;
  packet_size_p50 : float;
  packet_size_p99 : float;
  interarrival_p50 : float;
  interarrival_p99 : float;
  top_services : per_port list;
}

val analyse : Record.t list -> t
val pp : Format.formatter -> t -> unit
