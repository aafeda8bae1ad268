(* ICMP echo (ping) — the "raw IP" traffic of the paper's footnote 10:
   datagrams with no transport ports, which the FBS IP mapping classifies
   as host-level flows.

   Message layout (RFC 792): u8 type | u8 code | u16 checksum | u16 id |
   u16 seq | payload. *)

open Fbsr_util

let type_echo_reply = 0
let type_echo_request = 8

type message = { msg_type : int; code : int; id : int; seq : int; payload : string }

let encode m =
  let n = 8 + String.length m.payload in
  let buf = Bytes.create n in
  Bytes.set_uint8 buf 0 m.msg_type;
  Bytes.set_uint8 buf 1 m.code;
  Bytes.set_uint16_be buf 2 0;
  Bytes.set_uint16_be buf 4 m.id;
  Bytes.set_uint16_be buf 6 m.seq;
  Bytes.blit_string m.payload 0 buf 8 (String.length m.payload);
  Bytes.set_uint16_be buf 2
    (Inet_checksum.finish (Inet_checksum.sum (Bytes.unsafe_to_string buf) 0 n));
  Bytes.unsafe_to_string buf

exception Bad_message of string

let decode raw =
  if String.length raw < 8 then raise (Bad_message "short");
  if not (Inet_checksum.verify raw) then raise (Bad_message "checksum");
  {
    msg_type = String.get_uint8 raw 0;
    code = String.get_uint8 raw 1;
    id = String.get_uint16_be raw 4;
    seq = String.get_uint16_be raw 6;
    payload = String.sub raw 8 (String.length raw - 8);
  }

(* Per-host ping service: answers echo requests, tracks outstanding
   requests by (id, seq). *)

type state = {
  pending : (int * int, float * (float -> string -> unit)) Fbsr_util.Pending.t;
      (* (id, seq) -> send time, callback (rtt, payload) *)
  mutable next_id : int;
  mutable echoed : int;
}

exception E of state

let tag = "icmp"

let get host =
  match Host.find_extension host ~tag with
  | Some (E s) -> s
  | Some _ | None -> invalid_arg "Icmp: not installed on this host"

let handle host (h : Ipv4.header) payload =
  let s = get host in
  match decode payload with
  | exception Bad_message _ -> ()
  | m when m.msg_type = type_echo_request ->
      s.echoed <- s.echoed + 1;
      let reply = { m with msg_type = type_echo_reply } in
      Host.ip_output host ~protocol:Ipv4.proto_icmp ~dst:h.src (encode reply)
  | m when m.msg_type = type_echo_reply -> (
      match Fbsr_util.Pending.remove s.pending (m.id, m.seq) with
      | Some (t0, cb) -> cb (Host.now host -. t0) m.payload
      | None -> ())
  | _ -> ()

let install host =
  let s = { pending = Fbsr_util.Pending.create (); next_id = 1; echoed = 0 } in
  Host.set_extension host ~tag (E s);
  Host.register_protocol host ~protocol:Ipv4.proto_icmp handle

let ping host ~dst ?(payload = "abcdefghijklmnop") cb =
  let s = get host in
  let id = s.next_id in
  s.next_id <- (s.next_id + 1) land 0xffff;
  let seq = 1 in
  Fbsr_util.Pending.add s.pending (id, seq) (Host.now host, cb);
  Host.ip_output host ~protocol:Ipv4.proto_icmp ~dst
    (encode { msg_type = type_echo_request; code = 0; id; seq; payload })

let echoed host = (get host).echoed
