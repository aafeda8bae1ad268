(** Shared half-duplex network segment (the simulated 10 Mb/s Ethernet).

    One serialization resource models the shared wire; sniffer taps see
    every frame at transmit time, like tcpdump on the paper's LAN.  Every
    frame pays the Ethernet framing overhead and a 5 us propagation
    delay.  The medium delivers every frame to a known station exactly
    once: fault injection is {!Link}'s job. *)

type t

val create : ?bandwidth_bps:float -> Engine.t -> t
(** [bandwidth_bps] defaults to 10 Mb/s. *)

val attach : t -> addr:Addr.t -> deliver:(string -> unit) -> unit
val add_sniffer : t -> (float -> string -> unit) -> unit

val transmit : t -> dst:Addr.t -> string -> unit
(** Queue a raw IP packet for the destination station. *)

val tx_time : t -> int -> float
(** Wire occupancy of a frame carrying [bytes] IP bytes. *)

type stats = { frames : int; dropped : int; bytes : int }
(** [dropped] counts frames addressed to no attached station. *)

val stats : t -> stats
val utilization : t -> elapsed:float -> float
