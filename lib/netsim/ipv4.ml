(* IPv4 header codec (RFC 791), faithful enough for the FBS mapping: the
   FBS header is inserted *between* this header and the payload, exactly as
   the paper's FreeBSD implementation does, so total-length fixups,
   fragmentation fields and the header checksum all matter. *)

open Fbsr_util

type header = {
  tos : int;
  total_length : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int; (* in 8-byte units *)
  ttl : int;
  protocol : int;
  src : Addr.t;
  dst : Addr.t;
  options : string; (* raw option bytes, length a multiple of 4, <= 40 *)
}

let header_size = 20
let max_options = 40
let header_length h = header_size + String.length h.options
let proto_tcp = 6
let proto_udp = 17

let make ?(tos = 0) ?(ident = 0) ?(dont_fragment = false) ?(more_fragments = false)
    ?(frag_offset = 0) ?(ttl = 64) ?(options = "") ~protocol ~src ~dst ~payload_length
    () =
  if String.length options > max_options then invalid_arg "Ipv4.make: options too long";
  if String.length options mod 4 <> 0 then
    invalid_arg "Ipv4.make: options must be padded to 32-bit words";
  {
    tos;
    total_length = header_size + String.length options + payload_length;
    ident;
    dont_fragment;
    more_fragments;
    frag_offset;
    ttl;
    protocol;
    src;
    dst;
    options;
  }

(* Header fields into [buf] at 0, checksum last, computed over the same
   buffer: one pass, no intermediate copy. *)
let write_header buf h =
  let hl = header_length h in
  Bytes.set_uint8 buf 0 ((4 lsl 4) lor (hl / 4));
  Bytes.set_uint8 buf 1 h.tos;
  Bytes.set_uint16_be buf 2 h.total_length;
  Bytes.set_uint16_be buf 4 h.ident;
  let flags = (if h.dont_fragment then 0x4000 else 0) lor (if h.more_fragments then 0x2000 else 0) in
  Bytes.set_uint16_be buf 6 (flags lor (h.frag_offset land 0x1fff));
  Bytes.set_uint8 buf 8 h.ttl;
  Bytes.set_uint8 buf 9 h.protocol;
  Bytes.set_uint16_be buf 10 0;
  Bytes.set_int32_be buf 12 (Int32.of_int (Addr.to_int h.src));
  Bytes.set_int32_be buf 16 (Int32.of_int (Addr.to_int h.dst));
  Bytes.blit_string h.options 0 buf header_size (String.length h.options);
  Bytes.set_uint16_be buf 10
    (Inet_checksum.finish (Inet_checksum.sum (Bytes.unsafe_to_string buf) 0 hl))

let encode_header h =
  let buf = Bytes.create (header_length h) in
  write_header buf h;
  Bytes.unsafe_to_string buf

let encode h payload =
  let hl = header_length h in
  if h.total_length <> hl + String.length payload then
    invalid_arg "Ipv4.encode: total_length does not match payload";
  let buf = Bytes.create h.total_length in
  write_header buf h;
  Bytes.blit_string payload 0 buf hl (String.length payload);
  Bytes.unsafe_to_string buf

exception Bad_packet of string

(* Fields are read straight out of [raw] and the header checksum is
   verified in place. *)
let decode raw =
  if String.length raw < header_size then raise (Bad_packet "short header");
  let vihl = String.get_uint8 raw 0 in
  if vihl lsr 4 <> 4 then raise (Bad_packet "not IPv4");
  let ihl = (vihl land 0xf) * 4 in
  if ihl < header_size then raise (Bad_packet "bad IHL");
  let total_length = String.get_uint16_be raw 2 in
  if total_length > String.length raw then raise (Bad_packet "truncated packet");
  if ihl > total_length then raise (Bad_packet "IHL exceeds total length");
  if Inet_checksum.sum raw 0 ihl <> 0xffff then raise (Bad_packet "header checksum");
  let flags_frag = String.get_uint16_be raw 6 in
  let h =
    {
      tos = String.get_uint8 raw 1;
      total_length;
      ident = String.get_uint16_be raw 4;
      dont_fragment = flags_frag land 0x4000 <> 0;
      more_fragments = flags_frag land 0x2000 <> 0;
      frag_offset = flags_frag land 0x1fff;
      ttl = String.get_uint8 raw 8;
      protocol = String.get_uint8 raw 9;
      src = Addr.of_int (Int32.to_int (String.get_int32_be raw 12) land 0xffffffff);
      dst = Addr.of_int (Int32.to_int (String.get_int32_be raw 16) land 0xffffffff);
      options = (if ihl = header_size then "" else String.sub raw header_size (ihl - header_size));
    }
  in
  (h, String.sub raw ihl (total_length - ihl))
