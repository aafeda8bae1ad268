(* Session-based keying without a third party (paper, Section 2.1):
   a Photuris/Oakley-style baseline.

   "In session-based keying without a third party, a dynamic key exchange
   is performed between the source and destination principals.  This
   establishes a shared secret, which can be used to derive a session
   key.  The session key is stored as part of the security association,
   and is used in securing ensuing communications."

   The protocol here is deliberately minimal but structurally faithful to
   Photuris (the paper's [11]): a cookie exchange to damp flooding, then
   an ephemeral Diffie-Hellman exchange, then data under the derived
   session key.  The costs the paper attributes to this class are all
   visible: TWO round trips of setup messages before the first datagram
   can leave, per-peer hard state on both ends, and ephemeral modular
   exponentiations per session.  (In exchange the scheme has perfect
   forward secrecy, which Section 6.1 concedes no zero-message scheme can
   offer — our tests assert both halves of that trade.)

   Handshake (UDP port 468, Photuris's own):
     C->S  "PHC1" cookie_c
     S->C  "PHC2" cookie_c cookie_s
     C->S  "PHK1" cookie_c cookie_s g^x
     S->C  "PHK2" cookie_c g^y
   The initiator's datagrams to a peer park on one [Request] keyed by the
   peer, which resends the message of the step it waits on (PHC1, then
   PHK1) on the MKD's default schedule (2, 4, 8 s +- 10%) and drops them
   after the last attempt's timeout.  Duplicated and late messages are
   harmless: a second PHC2 is ignored, and a repeated PHK1 gets the PHK2
   that answered the first.
   Session key = MD5(g^xy).  Data packets (between IP header and payload):
     u8 flags | 8B cookie_c | 8B iv | 16B mac | body                     *)

open Fbsr_netsim
open Fbsr_util

let port = 468
let mac_len = 16

type session = {
  session_key : string;
  cookie : string; (* the initiator cookie identifies the association *)
  peer : Addr.t;
}

(* The initiator's side of one handshake in flight: the state of the
   request that the datagrams to its peer wait on. *)
type handshake = {
  cookie_c : string;
  mutable private_value : Fbsr_crypto.Dh.private_value option; (* set by the first PHC2 *)
  mutable message : string; (* the step's message: PHC1, then PHK1 *)
}

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable dropped : int;
  mutable handshakes : int;
  mutable setup_messages : int; (* wire messages spent on key exchange *)
  mutable modexps : int;
}

type t = {
  host : Host.t;
  group : Fbsr_crypto.Dh.group;
  rng : Rng.t;
  outgoing : (int, session) Hashtbl.t; (* peer addr -> session *)
  incoming : (string, session * string) Hashtbl.t;
      (* initiator cookie -> session, and the PHK2 that answered it *)
  handshakes : (int, handshake, (session, string) result) Request.t;
      (* by peer addr; the waiters are the parked datagrams *)
  iv_gen : Lcg.t;
  counters : counters;
}

let msg tag parts =
  let w = Byte_writer.create () in
  Byte_writer.bytes w tag;
  List.iter
    (fun p ->
      Byte_writer.u16 w (String.length p);
      Byte_writer.bytes w p)
    parts;
  Byte_writer.contents w

let parse_msg raw =
  let r = Byte_reader.of_string raw in
  try
    let tag = Byte_reader.bytes r 4 in
    let parts = ref [] in
    while Byte_reader.remaining r > 0 do
      let len = Byte_reader.u16 r in
      parts := Byte_reader.bytes r len :: !parts
    done;
    Some (tag, List.rev !parts)
  with Byte_reader.Truncated -> None

let send_handshake t ~dst payload =
  t.counters.setup_messages <- t.counters.setup_messages + 1;
  Udp_stack.send t.host ~src_port:port ~dst ~dst_port:port payload

let session_key_of_shared shared = Fbsr_crypto.Md5.digest shared

let compute_mac ~key parts = Fbsr_crypto.Mac.prefix Fbsr_crypto.Hash.md5 ~key parts

let protect t session payload =
  let iv = Lcg.next_block t.iv_gen 8 in
  let dk =
    Fbsr_crypto.Des.of_string
      (Fbsr_crypto.Des.adjust_parity (String.sub session.session_key 0 8))
  in
  let body = Fbsr_crypto.Des.encrypt_cbc ~iv dk payload in
  let mac = compute_mac ~key:session.session_key [ iv; body ] in
  let w = Byte_writer.create () in
  Byte_writer.u8 w 1;
  Byte_writer.bytes w session.cookie;
  Byte_writer.bytes w iv;
  Byte_writer.bytes w mac;
  Byte_writer.bytes w body;
  Byte_writer.contents w

type error = Truncated | Bad_flags | Unknown_association | Bad_mac | Decrypt_error

let unprotect t ~wire =
  let r = Byte_reader.of_string wire in
  match
    let flags = Byte_reader.u8 r in
    let cookie = Byte_reader.bytes r 8 in
    let iv = Byte_reader.bytes r 8 in
    let mac = Byte_reader.bytes r mac_len in
    let body = Byte_reader.rest r in
    (flags, cookie, iv, mac, body)
  with
  | exception Byte_reader.Truncated -> Error Truncated
  (* Every datagram is encrypted (flags = 1), and the MAC does not cover
     the flags byte: any other value is a forgery. *)
  | flags, _, _, _, _ when flags <> 1 -> Error Bad_flags
  | _, cookie, iv, mac, body -> (
      match Hashtbl.find_opt t.incoming cookie with
      | None -> Error Unknown_association
      | Some (session, _) ->
          if not (Fbsr_crypto.Ct.equal mac (compute_mac ~key:session.session_key [ iv; body ]))
          then Error Bad_mac
          else
            let dk =
              Fbsr_crypto.Des.of_string
                (Fbsr_crypto.Des.adjust_parity (String.sub session.session_key 0 8))
            in
            match Fbsr_crypto.Des.decrypt_cbc ~iv dk body with
            | plaintext -> Ok plaintext
            | exception Invalid_argument _ -> Error Decrypt_error)

let handle_handshake t ~src raw =
  match parse_msg raw with
  | None -> ()
  | Some ("PHC1", [ cookie_c ]) ->
      (* Responder: reflect the cookie pair; still stateless. *)
      let cookie_s = Rng.bytes t.rng 8 in
      send_handshake t ~dst:src (msg "PHC2" [ cookie_c; cookie_s ])
  | Some ("PHC2", [ cookie_c; cookie_s ]) -> (
      (* Initiator: cookies agreed; send our ephemeral public value.  A
         second PHC2 (duplicated, or answering a retransmitted PHC1) is
         ignored: the handshake keeps its first x. *)
      match Request.find t.handshakes (Addr.to_int src) with
      | Some hs when hs.cookie_c = cookie_c && hs.private_value = None ->
          let x = Fbsr_crypto.Dh.gen_private t.group t.rng in
          hs.private_value <- Some x;
          t.counters.modexps <- t.counters.modexps + 1;
          let gx =
            Fbsr_crypto.Dh.public_to_bytes t.group (Fbsr_crypto.Dh.public t.group x)
          in
          hs.message <- msg "PHK1" [ cookie_c; cookie_s; gx ];
          send_handshake t ~dst:src hs.message
      | _ -> ())
  | Some ("PHK1", [ cookie_c; _cookie_s; gx ]) -> (
      match Hashtbl.find_opt t.incoming cookie_c with
      | Some (_, phk2) ->
          (* A repeated PHK1 (duplicated, or retransmitted after a lost
             PHK2) gets the same answer: the association stays. *)
          send_handshake t ~dst:src phk2
      | None ->
          (* Responder: compute the shared secret, answer with our value,
             and install the inbound association (hard state). *)
          let y = Fbsr_crypto.Dh.gen_private t.group t.rng in
          t.counters.modexps <- t.counters.modexps + 2;
          let gy =
            Fbsr_crypto.Dh.public_to_bytes t.group (Fbsr_crypto.Dh.public t.group y)
          in
          let shared =
            Fbsr_crypto.Dh.shared_bytes t.group y (Fbsr_crypto.Dh.public_of_bytes gx)
          in
          let session =
            { session_key = session_key_of_shared shared; cookie = cookie_c; peer = src }
          in
          let phk2 = msg "PHK2" [ cookie_c; gy ] in
          Hashtbl.replace t.incoming cookie_c (session, phk2);
          t.counters.handshakes <- t.counters.handshakes + 1;
          send_handshake t ~dst:src phk2)
  | Some ("PHK2", [ cookie_c; gy ]) -> (
      (* Initiator: finish; install the outbound association and answer
         the datagrams parked behind the handshake. *)
      match Request.find t.handshakes (Addr.to_int src) with
      | Some { cookie_c = c; private_value = Some x; _ } when c = cookie_c ->
          t.counters.modexps <- t.counters.modexps + 1;
          let shared =
            Fbsr_crypto.Dh.shared_bytes t.group x (Fbsr_crypto.Dh.public_of_bytes gy)
          in
          let session =
            { session_key = session_key_of_shared shared; cookie = cookie_c; peer = src }
          in
          Hashtbl.replace t.outgoing (Addr.to_int src) session;
          ignore (Request.complete t.handshakes (Addr.to_int src) (Ok session))
      | _ -> ())
  | Some _ -> ()

(* The handshake's own UDP messages must bypass the data-protection hooks
   (the same circularity the FBS secure-flow bypass solves). *)
let is_handshake ~(h : Ipv4.header) payload =
  h.Ipv4.protocol = Ipv4.proto_udp
  && String.length payload >= 4
  && (let sp = (Char.code payload.[0] lsl 8) lor Char.code payload.[1] in
      let dp = (Char.code payload.[2] lsl 8) lor Char.code payload.[3] in
      sp = port || dp = port)

let output_hook t (h : Ipv4.header) payload k =
  if is_handshake ~h payload then k (Host.Pass (h, payload))
  else begin
    match Hashtbl.find_opt t.outgoing (Addr.to_int h.dst) with
    | Some session ->
        t.counters.sent <- t.counters.sent + 1;
        k (Host.Pass (h, protect t session payload))
    | None ->
        (* Two round trips of setup must finish before this datagram can
           leave — the cost FBS's zero-message keying removes.  The
           datagram waits on the peer's handshake, which resends the
           message of the step it waits on until the last attempt's
           timeout drops it. *)
        let parked = function
          | Ok session ->
              t.counters.sent <- t.counters.sent + 1;
              k (Host.Pass (h, protect t session payload))
          | Error reason ->
              t.counters.dropped <- t.counters.dropped + 1;
              k (Host.Drop reason)
        in
        let peer = Addr.to_int h.dst in
        if not (Request.join t.handshakes peer parked) then begin
          let cookie_c = Rng.bytes t.rng 8 in
          let hs =
            { cookie_c; private_value = None; message = msg "PHC1" [ cookie_c ] }
          in
          Request.start t.handshakes peer hs
            ~send:(fun _ -> send_handshake t ~dst:h.dst hs.message)
            parked
        end
  end

let input_hook t (h : Ipv4.header) payload k =
  if is_handshake ~h payload then k (Host.Pass (h, payload))
  else
    match unprotect t ~wire:payload with
    | Ok plaintext ->
        t.counters.received <- t.counters.received + 1;
        k
          (Host.Pass
             ( { h with Ipv4.total_length = Ipv4.header_length h + String.length plaintext },
               plaintext ))
    | Error _ ->
        t.counters.dropped <- t.counters.dropped + 1;
        k (Host.Drop "photuris verification failed")

let install ~group host =
  let t =
    {
      host;
      group;
      rng = Rng.create (0x9047 lxor Addr.to_int (Host.addr host));
      outgoing = Hashtbl.create 8;
      incoming = Hashtbl.create 8;
      handshakes =
        Request.create ~seed:0x9048 ~timeout:Fbsr_fbs_ip.Mkd.default_config.timeout
          ~max_attempts:Fbsr_fbs_ip.Mkd.default_config.max_attempts
          ~timed_out:(Error "photuris handshake timed out") host;
      iv_gen = Lcg.create (Addr.to_int (Host.addr host) lxor 0x1234);
      counters =
        { sent = 0; received = 0; dropped = 0; handshakes = 0; setup_messages = 0;
          modexps = 0 };
    }
  in
  Udp_stack.listen host ~port (fun ~src ~src_port:_ raw -> handle_handshake t ~src raw);
  Host.set_output_hook host (output_hook t);
  Host.set_input_hook host (input_hook t);
  Minitcp.set_mss_reduction host (1 + 8 + 8 + mac_len + 8);
  t

let counters t = t.counters
let sessions_out t = Hashtbl.length t.outgoing
let sessions_in t = Hashtbl.length t.incoming

(* Perfect forward secrecy probe for tests: after the handshake, the
   ephemeral private values are gone — all that remains per session is the
   symmetric session key, which compromising a *long-term* key cannot
   recover.  We expose the session-key table size only; there is no
   long-term key at all in this scheme, which is the strongest possible
   form of the Section 6.1 contrast. *)
let has_long_term_secrets (_ : t) = false
