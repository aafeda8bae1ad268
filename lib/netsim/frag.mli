(** IPv4 fragmentation and reassembly (RFC 815 hole descriptors). *)

exception Cannot_fragment
(** Raised when a datagram exceeds the MTU and DF is set. *)

val fragment : Ipv4.header -> string -> mtu:int -> (Ipv4.header * string) list
(** Split a payload into MTU-sized fragments (non-final fragments carry a
    multiple of 8 bytes). *)

type t

val create : ?timeout:float -> unit -> t
(** Reassembler; partial datagrams are discarded [timeout] (default 30)
    seconds after their first fragment arrived. *)

val add : t -> now:float -> Ipv4.header -> string -> (Ipv4.header * string) option
(** Feed one fragment; returns the reassembled datagram when complete.
    A fragment that fills no hole and fixes no end (a duplicate) is not
    stored.  A fragment first drops the partial datagrams whose deadline
    is before [now]; an unfragmented datagram passes straight through. *)

val pending : t -> int
