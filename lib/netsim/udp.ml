(* UDP header codec (RFC 768), with the pseudo-header checksum. *)

open Fbsr_util

type header = { src_port : int; dst_port : int; length : int }

let header_size = 8

(* The pseudo-header's words, added as integers: src, dst, zero+protocol,
   UDP length. *)
let pseudo_sum ~src ~dst ~udp_length =
  let s = Addr.to_int src and d = Addr.to_int dst in
  (s lsr 16) + (s land 0xffff) + (d lsr 16) + (d land 0xffff) + Ipv4.proto_udp + udp_length

let encode ~src ~dst ~src_port ~dst_port payload =
  let length = header_size + String.length payload in
  let buf = Bytes.create length in
  Bytes.set_uint16_be buf 0 src_port;
  Bytes.set_uint16_be buf 2 dst_port;
  Bytes.set_uint16_be buf 4 length;
  Bytes.set_uint16_be buf 6 0;
  Bytes.blit_string payload 0 buf header_size (String.length payload);
  let ck =
    Inet_checksum.finish
      (Inet_checksum.sum
         ~acc:(pseudo_sum ~src ~dst ~udp_length:length)
         (Bytes.unsafe_to_string buf) 0 length)
  in
  (* An all-zero checksum is transmitted as 0xffff (RFC 768). *)
  Bytes.set_uint16_be buf 6 (if ck = 0 then 0xffff else ck);
  Bytes.unsafe_to_string buf

exception Bad_datagram of string

let decode ~src ~dst raw =
  if String.length raw < header_size then raise (Bad_datagram "short header");
  let length = String.get_uint16_be raw 4 in
  if length < header_size || length > String.length raw then
    raise (Bad_datagram "bad length");
  if String.get_uint16_be raw 6 <> 0
     && Inet_checksum.sum ~acc:(pseudo_sum ~src ~dst ~udp_length:length) raw 0 length
        <> 0xffff
  then raise (Bad_datagram "checksum");
  ( { src_port = String.get_uint16_be raw 0; dst_port = String.get_uint16_be raw 2; length },
    String.sub raw header_size (length - header_size) )
