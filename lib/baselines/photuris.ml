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
   cookie_s = the first 8 bytes of MD5(secret | C's address | cookie_c),
   under a secret of S's own: S keeps no state before a PHK1 returns it,
   and ignores a PHK1 that does not.
   The initiator's datagrams to a peer park on one [Request] keyed by the
   peer, which resends the message of the step it waits on (PHC1, then
   PHK1) on the MKD's default schedule (2, 4, 8 s +- 10%) and drops them
   after the last attempt's timeout.  Duplicated and late messages are
   harmless: a second PHC2 is ignored, and a repeated PHK1 gets the PHK2
   that answered the first.
   Session key = MD5(g^xy).  Data datagrams are [Sealed] ones under the
   session key, with the scheme head  u8 flags | 8B cookie_c.           *)

open Fbsr_netsim
open Fbsr_util

let port = 468

type session = {
  key : Sealed.key;
  cookie : string; (* the initiator cookie identifies the association *)
}

(* The initiator's side of one handshake in flight: the state of the
   request that the datagrams to its peer wait on. *)
type handshake = {
  cookie_c : string;
  mutable private_value : Fbsr_crypto.Dh.private_value option; (* set by the first PHC2 *)
  mutable message : string; (* the step's message: PHC1, then PHK1 *)
}

type setup = {
  mutable handshakes : int;
  mutable setup_messages : int; (* wire messages spent on key exchange *)
  mutable modexps : int;
}

type t = {
  host : Host.t;
  group : Fbsr_crypto.Dh.group;
  rng : Rng.t;
  secret : string; (* keys the responder cookies *)
  outgoing : (int, session) Hashtbl.t; (* peer addr -> session *)
  incoming : (string, session * string) Hashtbl.t;
      (* initiator cookie -> session, and the PHK2 that answered it *)
  handshakes : (int, handshake, (session, string) result) Request.t;
      (* by peer addr; the waiters are the parked datagrams *)
  ivs : Lcg.t;
  counters : Sealed.counters;
  setup : setup;
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
  t.setup.setup_messages <- t.setup.setup_messages + 1;
  Udp_stack.send t.host ~src_port:port ~dst ~dst_port:port payload

(* The session key is MD5(g^xy); DES takes its first 8 bytes. *)
let session_of_shared shared ~cookie =
  let mac = Fbsr_crypto.Md5.digest shared in
  let des =
    Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity (String.sub mac 0 8))
  in
  { key = { Sealed.des; mac }; cookie }

let protect t session payload =
  Sealed.seal t.ivs session.key
    ~head:(String.make 1 (Char.chr Sealed.flags) ^ session.cookie)
    ~extra:"" payload

let unprotect t ~wire =
  Result.bind
    (Sealed.frame wire (fun r ->
         let flags = Byte_reader.u8 r in
         Ok (flags, Byte_reader.bytes r 8, 0)))
    (fun (cookie, tail) ->
      match Hashtbl.find_opt t.incoming cookie with
      | None -> Error Sealed.Unknown_key
      | Some (session, _) -> Sealed.open_ session.key tail)

(* The responder's cookie for an initiator's address and cookie, as in
   RFC 2522: a truncated MD5 keyed by the responder's secret.  The
   responder keeps no state for it, and only the host at that address
   sees it. *)
let responder_cookie t ~src cookie_c =
  String.sub
    (Fbsr_crypto.Md5.digest (String.concat "" [ t.secret; Addr.to_string src; cookie_c ]))
    0 8

let handle_handshake t ~src raw =
  match parse_msg raw with
  | None -> ()
  | Some ("PHC1", [ cookie_c ]) ->
      (* Responder: reflect the cookie pair; still stateless. *)
      send_handshake t ~dst:src (msg "PHC2" [ cookie_c; responder_cookie t ~src cookie_c ])
  | Some ("PHC2", [ cookie_c; cookie_s ]) -> (
      (* Initiator: cookies agreed; send our ephemeral public value.  A
         second PHC2 (duplicated, or answering a retransmitted PHC1) is
         ignored: the handshake keeps its first x. *)
      match Request.find t.handshakes (Addr.to_int src) with
      | Some hs when hs.cookie_c = cookie_c && hs.private_value = None ->
          let x = Fbsr_crypto.Dh.gen_private t.group t.rng in
          hs.private_value <- Some x;
          t.setup.modexps <- t.setup.modexps + 1;
          let gx =
            Fbsr_crypto.Dh.public_to_bytes t.group (Fbsr_crypto.Dh.public t.group x)
          in
          hs.message <- msg "PHK1" [ cookie_c; cookie_s; gx ];
          send_handshake t ~dst:src hs.message
      | _ -> ())
  | Some ("PHK1", [ cookie_c; cookie_s; gx ])
    when String.equal cookie_s (responder_cookie t ~src cookie_c) -> (
      (* A PHK1 without the cookie this address was given is ignored
         before any modexp: the anti-clogging exchange. *)
      let gx = Fbsr_crypto.Dh.public_of_bytes gx in
      match Hashtbl.find_opt t.incoming cookie_c with
      | Some (_, phk2) ->
          (* A repeated PHK1 (duplicated, or retransmitted after a lost
             PHK2) gets the same answer: the association stays. *)
          send_handshake t ~dst:src phk2
      | None when not (Fbsr_crypto.Dh.public_in_range t.group gx) ->
          (* A g^x outside [2, p) is refused before any modexp, and
             leaves no association. *)
          ()
      | None ->
          (* Responder: compute the shared secret, answer with our value,
             and install the inbound association (hard state). *)
          let y = Fbsr_crypto.Dh.gen_private t.group t.rng in
          t.setup.modexps <- t.setup.modexps + 2;
          let gy =
            Fbsr_crypto.Dh.public_to_bytes t.group (Fbsr_crypto.Dh.public t.group y)
          in
          let shared = Fbsr_crypto.Dh.shared_bytes t.group y gx in
          let session = session_of_shared shared ~cookie:cookie_c in
          let phk2 = msg "PHK2" [ cookie_c; gy ] in
          Hashtbl.replace t.incoming cookie_c (session, phk2);
          t.setup.handshakes <- t.setup.handshakes + 1;
          send_handshake t ~dst:src phk2)
  | Some ("PHK2", [ cookie_c; gy ]) -> (
      (* Initiator: finish; install the outbound association and answer
         the datagrams parked behind the handshake. *)
      let gy = Fbsr_crypto.Dh.public_of_bytes gy in
      match Request.find t.handshakes (Addr.to_int src) with
      | Some { cookie_c = c; private_value = Some x; _ }
        when c = cookie_c && Fbsr_crypto.Dh.public_in_range t.group gy ->
          (* A g^y outside [2, p) is ignored like a stray PHK2: the
             handshake keeps waiting and resending its PHK1. *)
          t.setup.modexps <- t.setup.modexps + 1;
          let shared = Fbsr_crypto.Dh.shared_bytes t.group x gy in
          let session = session_of_shared shared ~cookie:cookie_c in
          Hashtbl.replace t.outgoing (Addr.to_int src) session;
          ignore (Request.complete t.handshakes (Addr.to_int src) (Ok session))
      | _ -> ())
  | Some _ -> ()

(* The handshake's own UDP messages must bypass the data-protection hooks
   (the same circularity the FBS secure-flow bypass solves). *)
let is_handshake (h : Ipv4.header) payload =
  h.protocol = Ipv4.proto_udp
  && String.length payload >= 4
  && (let sp = (Char.code payload.[0] lsl 8) lor Char.code payload.[1] in
      let dp = (Char.code payload.[2] lsl 8) lor Char.code payload.[3] in
      sp = port || dp = port)

(* Two round trips of setup must finish before the first datagram to a
   peer can leave: it waits on the peer's handshake, which resends the
   message of the step it waits on. *)
let session t (h : Ipv4.header) =
  let peer = Addr.to_int h.dst in
  Sealed.await t.handshakes peer (Hashtbl.find_opt t.outgoing peer) ~start:(fun () ->
      let cookie_c = Rng.bytes t.rng 8 in
      let hs = { cookie_c; private_value = None; message = msg "PHC1" [ cookie_c ] } in
      (hs, fun _ -> send_handshake t ~dst:h.dst hs.message))

let install ~group host =
  let rng = Rng.create (0x9047 lxor Addr.to_int (Host.addr host)) in
  let secret = Rng.bytes rng 16 in
  let t =
    {
      host;
      group;
      rng;
      secret;
      outgoing = Hashtbl.create 8;
      incoming = Hashtbl.create 8;
      handshakes =
        Request.create ~seed:0x9048 ~timeout:Fbsr_fbs_ip.Mkd.default_config.timeout
          ~max_attempts:Fbsr_fbs_ip.Mkd.default_config.max_attempts
          ~timed_out:(Error "photuris handshake timed out") host;
      ivs = Lcg.create (Addr.to_int (Host.addr host) lxor 0x1234);
      counters = { sent = 0; received = 0; dropped = 0 };
      setup = { handshakes = 0; setup_messages = 0; modexps = 0 };
    }
  in
  Udp_stack.listen host ~port (fun ~src ~src_port:_ raw -> handle_handshake t ~src raw);
  Host.set_output_hook host
    (Sealed.output t.counters ~bypass:is_handshake ~seal:(protect t) (session t));
  Host.set_input_hook host
    (Sealed.input t.counters ~bypass:is_handshake (fun _ payload k ->
         k (unprotect t ~wire:payload)));
  Minitcp.set_mss_reduction host (Sealed.overhead ~head:(1 + 8));
  t

let counters t = t.counters
let setup t = t.setup
let sessions_out t = Hashtbl.length t.outgoing
let sessions_in t = Hashtbl.length t.incoming

(* Perfect forward secrecy probe for tests: after the handshake, the
   ephemeral private values are gone — all that remains per session is the
   symmetric session key, which compromising a *long-term* key cannot
   recover.  We expose the session-key table size only; there is no
   long-term key at all in this scheme, which is the strongest possible
   form of the Section 6.1 contrast. *)
let has_long_term_secrets (_ : t) = false
