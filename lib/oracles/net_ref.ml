(* Reference network codecs: the byte-at-a-time RFC 1071 checksum, the
   per-byte-complementing CRC-32 loop, and the [Byte_writer] /
   [Byte_reader] codecs of IPv4, UDP and TCP that the netsim
   datapath used before its one-buffer encoders and in-place decoders.
   Kept verbatim as differential oracles: test/test_netsim.ml and
   test/test_util.ml pin the production modules to these byte for byte
   and verdict for verdict.  Not used on any datapath. *)

open Fbsr_util
open Fbsr_netsim

(* --- RFC 1071, one 16-bit word at a time, bounds-checked reads --- *)

let checksum_sum ?(acc = 0) s pos len =
  let acc = ref acc in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    acc := !acc + ((Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1]);
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code s.[!i] lsl 8);
  let a = ref !acc in
  while !a lsr 16 <> 0 do
    a := (!a land 0xffff) + (!a lsr 16)
  done;
  !a

let checksum_string s = Inet_checksum.finish (checksum_sum s 0 (String.length s))
let checksum_verify s = checksum_sum s 0 (String.length s) = 0xffff

(* --- CRC-32: lazy table, one complement pair per byte --- *)

let crc_table =
  lazy
    (let t = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     t)

let crc32_update crc s pos len =
  let t = Lazy.force crc_table in
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let crc32_update_byte crc b =
  let t = Lazy.force crc_table in
  let c = crc lxor 0xffffffff in
  let c = t.((c lxor (b land 0xff)) land 0xff) lxor (c lsr 8) in
  c lxor 0xffffffff

let crc32_update_int32 crc v =
  let crc = crc32_update_byte crc (v lsr 24) in
  let crc = crc32_update_byte crc (v lsr 16) in
  let crc = crc32_update_byte crc (v lsr 8) in
  crc32_update_byte crc v

let crc32_update_int64 crc (v : int64) =
  let hi = Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff in
  let lo = Int64.to_int (Int64.logand v 0xffffffffL) in
  crc32_update_int32 (crc32_update_int32 crc hi) lo

(* --- IPv4 --- *)

let ipv4_encode_header (h : Ipv4.header) =
  let ihl_words = (Ipv4.header_size + String.length h.options) / 4 in
  let w = Byte_writer.create ~capacity:(Ipv4.header_size + String.length h.options) () in
  Byte_writer.u8 w ((4 lsl 4) lor ihl_words);
  Byte_writer.u8 w h.tos;
  Byte_writer.u16 w h.total_length;
  Byte_writer.u16 w h.ident;
  let flags = (if h.dont_fragment then 0x4000 else 0) lor (if h.more_fragments then 0x2000 else 0) in
  Byte_writer.u16 w (flags lor (h.frag_offset land 0x1fff));
  Byte_writer.u8 w h.ttl;
  Byte_writer.u8 w h.protocol;
  Byte_writer.u16 w 0;
  Byte_writer.u32_int w (Addr.to_int h.src);
  Byte_writer.u32_int w (Addr.to_int h.dst);
  Byte_writer.bytes w h.options;
  let raw = Bytes.of_string (Byte_writer.contents w) in
  let ck = checksum_string (Bytes.to_string raw) in
  Bytes.set raw 10 (Char.chr (ck lsr 8));
  Bytes.set raw 11 (Char.chr (ck land 0xff));
  Bytes.unsafe_to_string raw

let ipv4_encode h payload =
  if h.Ipv4.total_length <> Ipv4.header_length h + String.length payload then
    invalid_arg "Ipv4.encode: total_length does not match payload";
  ipv4_encode_header h ^ payload

let ipv4_decode raw =
  let bad m = raise (Ipv4.Bad_packet m) in
  let r = Byte_reader.of_string raw in
  (try if Byte_reader.remaining r < Ipv4.header_size then bad "short header"
   with Byte_reader.Truncated -> bad "short header");
  let vihl = Byte_reader.u8 r in
  if vihl lsr 4 <> 4 then bad "not IPv4";
  let ihl = (vihl land 0xf) * 4 in
  if ihl < Ipv4.header_size then bad "bad IHL";
  let tos = Byte_reader.u8 r in
  let total_length = Byte_reader.u16 r in
  let ident = Byte_reader.u16 r in
  let flags_frag = Byte_reader.u16 r in
  let ttl = Byte_reader.u8 r in
  let protocol = Byte_reader.u8 r in
  let _checksum = Byte_reader.u16 r in
  let src = Addr.of_int (Byte_reader.u32_int r) in
  let dst = Addr.of_int (Byte_reader.u32_int r) in
  if total_length > String.length raw then bad "truncated packet";
  if ihl > total_length then bad "IHL exceeds total length";
  if not (checksum_verify (String.sub raw 0 ihl)) then bad "header checksum";
  let options = String.sub raw Ipv4.header_size (ihl - Ipv4.header_size) in
  let payload = String.sub raw ihl (total_length - ihl) in
  ( {
      Ipv4.tos;
      total_length;
      ident;
      dont_fragment = flags_frag land 0x4000 <> 0;
      more_fragments = flags_frag land 0x2000 <> 0;
      frag_offset = flags_frag land 0x1fff;
      ttl;
      protocol;
      src;
      dst;
      options;
    },
    payload )

(* --- UDP and TCP, with the pseudo-header as a 12-byte string --- *)

let pseudo_header ~protocol ~src ~dst ~length =
  let w = Byte_writer.create ~capacity:12 () in
  Byte_writer.u32_int w (Addr.to_int src);
  Byte_writer.u32_int w (Addr.to_int dst);
  Byte_writer.u8 w 0;
  Byte_writer.u8 w protocol;
  Byte_writer.u16 w length;
  Byte_writer.contents w

let pseudo_sum ~protocol ~src ~dst ~length =
  checksum_sum (pseudo_header ~protocol ~src ~dst ~length) 0 12

let udp_encode ~src ~dst ~src_port ~dst_port payload =
  let length = Udp.header_size + String.length payload in
  let w = Byte_writer.create ~capacity:length () in
  Byte_writer.u16 w src_port;
  Byte_writer.u16 w dst_port;
  Byte_writer.u16 w length;
  Byte_writer.u16 w 0;
  Byte_writer.bytes w payload;
  let raw = Bytes.of_string (Byte_writer.contents w) in
  let sum =
    checksum_sum
      ~acc:(pseudo_sum ~protocol:Ipv4.proto_udp ~src ~dst ~length)
      (Bytes.to_string raw) 0 length
  in
  let ck = Inet_checksum.finish sum in
  let ck = if ck = 0 then 0xffff else ck in
  Bytes.set raw 6 (Char.chr (ck lsr 8));
  Bytes.set raw 7 (Char.chr (ck land 0xff));
  Bytes.unsafe_to_string raw

let udp_decode ~src ~dst raw =
  let bad m = raise (Udp.Bad_datagram m) in
  let r = Byte_reader.of_string raw in
  let src_port, dst_port, length, checksum =
    try
      let sp = Byte_reader.u16 r in
      let dp = Byte_reader.u16 r in
      let len = Byte_reader.u16 r in
      let ck = Byte_reader.u16 r in
      (sp, dp, len, ck)
    with Byte_reader.Truncated -> bad "short header"
  in
  if length < Udp.header_size || length > String.length raw then bad "bad length";
  if checksum <> 0 then begin
    let sum =
      checksum_sum ~acc:(pseudo_sum ~protocol:Ipv4.proto_udp ~src ~dst ~length) raw 0 length
    in
    if sum <> 0xffff then bad "checksum"
  end;
  let payload = String.sub raw Udp.header_size (length - Udp.header_size) in
  ({ Udp.src_port; dst_port; length }, payload)

let tcp_flags_to_int (f : Tcp_seg.flags) =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

let tcp_encode ~src ~dst (h : Tcp_seg.header) payload =
  let length = Tcp_seg.header_size + String.length payload in
  let w = Byte_writer.create ~capacity:length () in
  Byte_writer.u16 w h.src_port;
  Byte_writer.u16 w h.dst_port;
  Byte_writer.u32 w h.seq;
  Byte_writer.u32 w h.ack_seq;
  Byte_writer.u8 w (5 lsl 4);
  Byte_writer.u8 w (tcp_flags_to_int h.flags);
  Byte_writer.u16 w h.window;
  Byte_writer.u16 w 0;
  Byte_writer.u16 w 0;
  Byte_writer.bytes w payload;
  let raw = Bytes.of_string (Byte_writer.contents w) in
  let sum =
    checksum_sum
      ~acc:(pseudo_sum ~protocol:Ipv4.proto_tcp ~src ~dst ~length)
      (Bytes.to_string raw) 0 length
  in
  let ck = Inet_checksum.finish sum in
  Bytes.set raw 16 (Char.chr (ck lsr 8));
  Bytes.set raw 17 (Char.chr (ck land 0xff));
  Bytes.unsafe_to_string raw

let tcp_decode ~src ~dst raw =
  let bad m = raise (Tcp_seg.Bad_segment m) in
  let len = String.length raw in
  if len < Tcp_seg.header_size then bad "short header";
  let sum =
    checksum_sum ~acc:(pseudo_sum ~protocol:Ipv4.proto_tcp ~src ~dst ~length:len) raw 0 len
  in
  if sum <> 0xffff then bad "checksum";
  let r = Byte_reader.of_string raw in
  let src_port = Byte_reader.u16 r in
  let dst_port = Byte_reader.u16 r in
  let seq = Byte_reader.u32 r in
  let ack_seq = Byte_reader.u32 r in
  let data_off = (Byte_reader.u8 r lsr 4) * 4 in
  if data_off < Tcp_seg.header_size || data_off > len then bad "bad offset";
  let v = Byte_reader.u8 r in
  let flags =
    {
      Tcp_seg.fin = v land 0x01 <> 0;
      syn = v land 0x02 <> 0;
      rst = v land 0x04 <> 0;
      psh = v land 0x08 <> 0;
      ack = v land 0x10 <> 0;
    }
  in
  let window = Byte_reader.u16 r in
  let payload = String.sub raw data_off (len - data_off) in
  ({ Tcp_seg.src_port; dst_port; seq; ack_seq; flags; window }, payload)
