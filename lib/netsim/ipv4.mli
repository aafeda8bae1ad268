(** IPv4 header codec (RFC 791). *)

type header = {
  tos : int;
  total_length : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** in 8-byte units *)
  ttl : int;
  protocol : int;
  src : Addr.t;
  dst : Addr.t;
  options : string;  (** raw option bytes: 4-byte multiple, at most 40 *)
}

val header_size : int
(** 20 bytes (without options). *)

val header_length : header -> int
(** [header_size] + options length. *)

val proto_tcp : int
val proto_udp : int

val make :
  ?tos:int ->
  ?ident:int ->
  ?dont_fragment:bool ->
  ?more_fragments:bool ->
  ?frag_offset:int ->
  ?ttl:int ->
  ?options:string ->
  protocol:int ->
  src:Addr.t ->
  dst:Addr.t ->
  payload_length:int ->
  unit ->
  header

val encode_header : header -> string
(** The header, options included, with a valid checksum. *)

val encode : header -> string -> string
(** Header and payload in one buffer of [total_length] bytes.
    @raise Invalid_argument if [total_length] does not match the
    payload. *)

exception Bad_packet of string

val decode : string -> header * string
(** The checksum is verified in place; the payload is the one copy.
    @raise Bad_packet on malformed input (bad version, checksum,
    truncation). *)
