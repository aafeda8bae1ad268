(** ICMP echo: the port-less "raw IP" traffic FBS treats as host-level
    flows (paper footnote 10). *)

type message = { msg_type : int; code : int; id : int; seq : int; payload : string }

val encode : message -> string

exception Bad_message of string

val decode : string -> message

val install : Host.t -> unit
val ping : Host.t -> dst:Addr.t -> ?payload:string -> (float -> string -> unit) -> unit
(** [ping host ~dst cb]: [cb rtt payload] runs when the reply arrives. *)

val echoed : Host.t -> int
(** Echo requests this host has answered. *)
