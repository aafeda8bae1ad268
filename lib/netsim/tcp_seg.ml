(* TCP segment codec (header only; the reliable-delivery machinery lives in
   [Minitcp]).  Sequence numbers are 32-bit; we keep flags minimal. *)

open Fbsr_util

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

let no_flags = { syn = false; ack = false; fin = false; rst = false; psh = false }

type header = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
}

let header_size = 20

(* The pseudo-header's words, added as integers: src, dst, zero+protocol,
   TCP length. *)
let pseudo_sum ~src ~dst ~tcp_length =
  let s = Addr.to_int src and d = Addr.to_int dst in
  (s lsr 16) + (s land 0xffff) + (d lsr 16) + (d land 0xffff) + Ipv4.proto_tcp + tcp_length

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

let flags_of_int v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0;
    ack = v land 0x10 <> 0;
  }

let encode ~src ~dst (h : header) payload =
  let length = header_size + String.length payload in
  let buf = Bytes.create length in
  Bytes.set_uint16_be buf 0 h.src_port;
  Bytes.set_uint16_be buf 2 h.dst_port;
  Bytes.set_int32_be buf 4 h.seq;
  Bytes.set_int32_be buf 8 h.ack_seq;
  Bytes.set_uint8 buf 12 (5 lsl 4); (* data offset 5 words, no options *)
  Bytes.set_uint8 buf 13 (flags_to_int h.flags);
  Bytes.set_uint16_be buf 14 h.window;
  Bytes.set_uint16_be buf 16 0; (* checksum *)
  Bytes.set_uint16_be buf 18 0; (* urgent *)
  Bytes.blit_string payload 0 buf header_size (String.length payload);
  Bytes.set_uint16_be buf 16
    (Inet_checksum.finish
       (Inet_checksum.sum
          ~acc:(pseudo_sum ~src ~dst ~tcp_length:length)
          (Bytes.unsafe_to_string buf) 0 length));
  Bytes.unsafe_to_string buf

exception Bad_segment of string

let decode ~src ~dst raw =
  let len = String.length raw in
  if len < header_size then raise (Bad_segment "short header");
  if Inet_checksum.sum ~acc:(pseudo_sum ~src ~dst ~tcp_length:len) raw 0 len <> 0xffff then
    raise (Bad_segment "checksum");
  let data_off = (String.get_uint8 raw 12 lsr 4) * 4 in
  if data_off < header_size || data_off > len then raise (Bad_segment "bad offset");
  ( {
      src_port = String.get_uint16_be raw 0;
      dst_port = String.get_uint16_be raw 2;
      seq = String.get_int32_be raw 4;
      ack_seq = String.get_int32_be raw 8;
      flags = flags_of_int (String.get_uint8 raw 13);
      window = String.get_uint16_be raw 14;
    },
    String.sub raw data_off (len - data_off) )

(* 32-bit sequence arithmetic. *)
let seq_add (s : int32) n = Int32.add s (Int32.of_int n)
let seq_cmp (a : int32) (b : int32) = Int32.compare (Int32.sub a b) 0l
let seq_diff (a : int32) (b : int32) = Int32.to_int (Int32.sub a b)
