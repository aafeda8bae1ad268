(* Session-based keying baseline (paper, Section 2.1): a Kerberos-style
   key distribution center.

   "Before a source sends a datagram, it contacts the KDC to request a
   session key and an authentication ticket.  The ticket, encrypted with
   the destination's secret key, allows the destination (and only the
   destination) to authenticate and decrypt transmissions from the source."

   This baseline exists to make the paper's argument concrete: the KDC
   round trip happens *before the first datagram can leave* (an explicit
   setup exchange), and both ends hold hard session state.  After setup its
   per-packet costs are comparable to FBS — which is exactly the paper's
   point: flows give you the efficiency without the setup.

   Each enrolled host shares a DES key with the KDC (out of band).

   The KDC request crosses the same unreliable network as the data, so
   the datagrams to a destination park on one [Request] keyed by its
   name: KREQ is resent on the MKD's default schedule (2, 4, 8 s +- 10%),
   and a refusal or the last attempt's timeout drops every parked
   datagram.

   KDC protocol (UDP):
     request:  "KREQ" u16 len | destination name
     response: "KRSP" u16 n | E(K_client, Ks || expiry)
                      u16 m | ticket = E(K_dst, Ks || src || expiry)
     failure:  "KFAI" u16 len | destination name

   Data packets (between IP header and payload):
     u8 flags | u16 ticket_len | ticket | 8B iv | 16B mac | body        *)

open Fbsr_netsim
open Fbsr_util

let kdc_port = 88
let local_port = 900
let zero_iv = String.make 8 '\000'
let mac_len = 16

(* --- KDC server --- *)

module Server = struct
  let ticket_lifetime = 8.0 *. 3600.0

  type t = {
    host : Host.t;
    registry : (string, string) Hashtbl.t; (* host name -> shared DES key *)
    rng : Fbsr_util.Rng.t;
    mutable tickets_issued : int;
  }

  let enroll t ~name =
    let key = Fbsr_crypto.Des.adjust_parity (Fbsr_util.Rng.bytes t.rng 8) in
    Hashtbl.replace t.registry name key;
    key

  let session_blob ~session_key ~extra ~expiry =
    let w = Byte_writer.create () in
    Byte_writer.bytes w session_key;
    Byte_writer.u16 w (String.length extra);
    Byte_writer.bytes w extra;
    Byte_writer.u64 w (Int64.of_float expiry);
    Byte_writer.contents w

  let handle t ~src ~src_port raw =
    let r = Byte_reader.of_string raw in
    match
      let magic = Byte_reader.bytes r 4 in
      let len = Byte_reader.u16 r in
      let dst_name = Byte_reader.bytes r len in
      (magic, dst_name)
    with
    | exception Byte_reader.Truncated -> ()
    | magic, dst_name when magic = "KREQ" -> (
        let src_name = Addr.to_string src in
        let reply =
          match
            (Hashtbl.find_opt t.registry src_name, Hashtbl.find_opt t.registry dst_name)
          with
          | Some k_client, Some k_dst ->
              let session_key =
                Fbsr_crypto.Des.adjust_parity (Fbsr_util.Rng.bytes t.rng 8)
              in
              let expiry = Host.now t.host +. ticket_lifetime in
              let for_client =
                Fbsr_crypto.Des.encrypt_cbc ~iv:zero_iv
                  (Fbsr_crypto.Des.of_string k_client)
                  (session_blob ~session_key ~extra:dst_name ~expiry)
              in
              let ticket =
                Fbsr_crypto.Des.encrypt_cbc ~iv:zero_iv
                  (Fbsr_crypto.Des.of_string k_dst)
                  (session_blob ~session_key ~extra:src_name ~expiry)
              in
              t.tickets_issued <- t.tickets_issued + 1;
              let w = Byte_writer.create () in
              Byte_writer.bytes w "KRSP";
              Byte_writer.u16 w (String.length for_client);
              Byte_writer.bytes w for_client;
              Byte_writer.u16 w (String.length ticket);
              Byte_writer.bytes w ticket;
              Byte_writer.contents w
          | _ ->
              let w = Byte_writer.create () in
              Byte_writer.bytes w "KFAI";
              Byte_writer.u16 w (String.length dst_name);
              Byte_writer.bytes w dst_name;
              Byte_writer.contents w
        in
        Udp_stack.send t.host ~src_port:kdc_port ~dst:src ~dst_port:src_port reply)
    | _ -> ()

  let install host =
    let t =
      {
        host;
        registry = Hashtbl.create 16;
        rng = Fbsr_util.Rng.create 0xadc1;
        tickets_issued = 0;
      }
    in
    Udp_stack.listen host ~port:kdc_port (fun ~src ~src_port raw ->
        handle t ~src ~src_port raw);
    t

  let tickets_issued t = t.tickets_issued
end

(* --- Client/receiver stack --- *)

type session = { session_key : string; ticket : string; expiry : float }

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable dropped : int;
  mutable kdc_requests : int;
  mutable sessions : int;
}

type t = {
  host : Host.t;
  kdc_addr : Addr.t;
  shared_key : string; (* our key with the KDC *)
  outgoing : (string, session) Hashtbl.t; (* dst name -> session (hard state) *)
  incoming : (string, session) Hashtbl.t; (* ticket -> session (hard state) *)
  requests : (string, unit, (session, string) result) Request.t;
      (* by destination name; the waiters are the parked datagrams *)
  iv_gen : Lcg.t;
  counters : counters;
}

let parse_session_blob blob =
  let r = Byte_reader.of_string blob in
  let session_key = Byte_reader.bytes r 8 in
  let len = Byte_reader.u16 r in
  let extra = Byte_reader.bytes r len in
  let expiry = Int64.to_float (Byte_reader.u64 r) in
  (session_key, extra, expiry)

let compute_mac ~key parts = Fbsr_crypto.Mac.prefix Fbsr_crypto.Hash.md5 ~key parts

let protect t session payload =
  let iv = Lcg.next_block t.iv_gen 8 in
  let dk = Fbsr_crypto.Des.of_string session.session_key in
  let body = Fbsr_crypto.Des.encrypt_cbc ~iv dk payload in
  let mac = compute_mac ~key:session.session_key [ iv; body ] in
  let w = Byte_writer.create () in
  Byte_writer.u8 w 1;
  Byte_writer.u16 w (String.length session.ticket);
  Byte_writer.bytes w session.ticket;
  Byte_writer.bytes w iv;
  Byte_writer.bytes w mac;
  Byte_writer.bytes w body;
  Byte_writer.contents w

let request_session t dst_name =
  t.counters.kdc_requests <- t.counters.kdc_requests + 1;
  let w = Byte_writer.create () in
  Byte_writer.bytes w "KREQ";
  Byte_writer.u16 w (String.length dst_name);
  Byte_writer.bytes w dst_name;
  Udp_stack.send t.host ~src_port:local_port ~dst:t.kdc_addr ~dst_port:kdc_port
    (Byte_writer.contents w)

let handle_kdc_reply t raw =
  let r = Byte_reader.of_string raw in
  match Byte_reader.bytes r 4 with
  | exception Byte_reader.Truncated -> ()
  | "KRSP" -> (
      match
        let n = Byte_reader.u16 r in
        let for_client = Byte_reader.bytes r n in
        let m = Byte_reader.u16 r in
        let ticket = Byte_reader.bytes r m in
        (for_client, ticket)
      with
      | exception Byte_reader.Truncated -> ()
      | for_client, ticket -> (
          match
            parse_session_blob
              (Fbsr_crypto.Des.decrypt_cbc ~iv:zero_iv
                 (Fbsr_crypto.Des.of_string t.shared_key)
                 for_client)
          with
          | exception _ -> ()
          | session_key, dst_name, expiry ->
              let session = { session_key; ticket; expiry } in
              Hashtbl.replace t.outgoing dst_name session;
              t.counters.sessions <- t.counters.sessions + 1;
              ignore (Request.complete t.requests dst_name (Ok session))))
  | "KFAI" -> (
      (* The KDC refused the destination: its parked datagrams are
         dropped, and the next datagram to it asks again. *)
      match Byte_reader.bytes r (Byte_reader.u16 r) with
      | exception Byte_reader.Truncated -> ()
      | dst_name ->
          ignore (Request.complete t.requests dst_name (Error "kdc refused the session")))
  | _ -> ()

let output_hook t (h : Ipv4.header) payload k =
  if Addr.equal h.dst t.kdc_addr then k (Host.Pass (h, payload))
  else begin
    let dst_name = Addr.to_string h.dst in
    match Hashtbl.find_opt t.outgoing dst_name with
    | Some session when session.expiry > Host.now t.host ->
        t.counters.sent <- t.counters.sent + 1;
        k (Host.Pass (h, protect t session payload))
    | Some _ | None ->
        (* Session setup required before the first datagram can leave:
           the explicit message exchange FBS avoids.  The datagram waits
           on the destination's request; a lost request or reply is
           retransmitted, and a refusal or the last attempt's timeout
           drops it. *)
        let parked = function
          | Ok session ->
              t.counters.sent <- t.counters.sent + 1;
              k (Host.Pass (h, protect t session payload))
          | Error reason ->
              t.counters.dropped <- t.counters.dropped + 1;
              k (Host.Drop reason)
        in
        if not (Request.join t.requests dst_name parked) then
          Request.start t.requests dst_name ()
            ~send:(fun _ -> request_session t dst_name)
            parked
  end

type error = Truncated | Bad_flags | Bad_ticket | Expired | Bad_mac | Decrypt_error

let unprotect t ~now ~wire =
  let r = Byte_reader.of_string wire in
  match
    let flags = Byte_reader.u8 r in
    let n = Byte_reader.u16 r in
    let ticket = Byte_reader.bytes r n in
    let iv = Byte_reader.bytes r 8 in
    let mac = Byte_reader.bytes r mac_len in
    let body = Byte_reader.rest r in
    (flags, ticket, iv, mac, body)
  with
  | exception Byte_reader.Truncated -> Error Truncated
  (* Every datagram is encrypted (flags = 1), and the MAC does not cover
     the flags byte: any other value is a forgery. *)
  | flags, _, _, _, _ when flags <> 1 -> Error Bad_flags
  | _, ticket, iv, mac, body -> (
      let session =
        match Hashtbl.find_opt t.incoming ticket with
        | Some s -> Ok s
        | None -> (
            match
              parse_session_blob
                (Fbsr_crypto.Des.decrypt_cbc ~iv:zero_iv
                   (Fbsr_crypto.Des.of_string t.shared_key)
                   ticket)
            with
            | exception _ -> Error Bad_ticket
            | session_key, _src_name, expiry ->
                let s = { session_key; ticket; expiry } in
                Hashtbl.replace t.incoming ticket s;
                t.counters.sessions <- t.counters.sessions + 1;
                Ok s)
      in
      match session with
      | Error e -> Error e
      | Ok session ->
          if session.expiry < now then Error Expired
          else if
            not (Fbsr_crypto.Ct.equal mac (compute_mac ~key:session.session_key [ iv; body ]))
          then Error Bad_mac
          else
            let dk = Fbsr_crypto.Des.of_string session.session_key in
            match Fbsr_crypto.Des.decrypt_cbc ~iv dk body with
            | plaintext -> Ok plaintext
            | exception Invalid_argument _ -> Error Decrypt_error)

let input_hook t (h : Ipv4.header) payload k =
  if Addr.equal h.src t.kdc_addr then k (Host.Pass (h, payload))
  else
    match unprotect t ~now:(Host.now t.host) ~wire:payload with
    | Ok plaintext ->
        t.counters.received <- t.counters.received + 1;
        k
          (Host.Pass
             ( { h with Ipv4.total_length = Ipv4.header_length h + String.length plaintext },
               plaintext ))
    | Error _ ->
        t.counters.dropped <- t.counters.dropped + 1;
        k (Host.Drop "kdc verification failed")

let install ~kdc_addr ~shared_key host =
  let t =
    {
      host;
      kdc_addr;
      shared_key;
      outgoing = Hashtbl.create 8;
      incoming = Hashtbl.create 8;
      requests =
        Request.create ~seed:0x4bdc ~timeout:Fbsr_fbs_ip.Mkd.default_config.timeout
          ~max_attempts:Fbsr_fbs_ip.Mkd.default_config.max_attempts
          ~timed_out:(Error "kdc request timed out") host;
      iv_gen = Lcg.create (Addr.to_int (Host.addr host));
      counters = { sent = 0; received = 0; dropped = 0; kdc_requests = 0; sessions = 0 };
    }
  in
  Udp_stack.listen host ~port:local_port (fun ~src ~src_port:_ raw ->
      if Addr.equal src kdc_addr then handle_kdc_reply t raw);
  Host.set_output_hook host (output_hook t);
  Host.set_input_hook host (input_hook t);
  (* Worst case wire growth: flags+len+ticket(~32)+iv+mac+padding. *)
  Minitcp.set_mss_reduction host (3 + 32 + 8 + mac_len + 8);
  t

let counters t = t.counters
let sessions_out t = Hashtbl.length t.outgoing
let sessions_in t = Hashtbl.length t.incoming
