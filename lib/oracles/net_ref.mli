(** Reference network codecs: the byte-at-a-time RFC 1071 checksum, the
    per-byte CRC-32 loop, and the [Byte_writer]/[Byte_reader] codecs of
    IPv4, UDP and TCP that {!Fbsr_util.Inet_checksum},
    {!Fbsr_util.Crc32} and the {!Fbsr_netsim} codecs replaced.  Each has
    its production twin's contract and raises its exceptions; the
    differential suites pin the twins to these.  Not used on any
    datapath. *)

open Fbsr_netsim

val checksum_sum : ?acc:int -> string -> int -> int -> int
val checksum_string : string -> int
val checksum_verify : string -> bool

val crc32_update : int -> string -> int -> int -> int
val crc32_update_byte : int -> int -> int
val crc32_update_int32 : int -> int -> int
val crc32_update_int64 : int -> int64 -> int

val ipv4_encode_header : Ipv4.header -> string
val ipv4_encode : Ipv4.header -> string -> string
val ipv4_decode : string -> Ipv4.header * string

val udp_encode :
  src:Addr.t -> dst:Addr.t -> src_port:int -> dst_port:int -> string -> string

val udp_decode : src:Addr.t -> dst:Addr.t -> string -> Udp.header * string
val tcp_encode : src:Addr.t -> dst:Addr.t -> Tcp_seg.header -> string -> string
val tcp_decode : src:Addr.t -> dst:Addr.t -> string -> Tcp_seg.header * string
