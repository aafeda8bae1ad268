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

   Data datagrams are [Sealed] ones under the session key, with the
   scheme head  u8 flags | u16 ticket_len | ticket.                      *)

open Fbsr_netsim
open Fbsr_util

let kdc_port = 88
let local_port = 900
let zero_iv = String.make 8 '\000'

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

type session = { key : Sealed.key; ticket : string; expiry : float }

type t = {
  host : Host.t;
  kdc_addr : Addr.t;
  shared_key : string; (* our key with the KDC *)
  outgoing : (string, session) Hashtbl.t; (* dst name -> session (hard state) *)
  incoming : (string, session) Hashtbl.t; (* ticket -> session (hard state) *)
  requests : (string, unit, (session, string) result) Request.t;
      (* by destination name; the waiters are the parked datagrams *)
  ivs : Lcg.t;
  counters : Sealed.counters;
  mutable kdc_requests : int;
}

(* A session blob sealed under [key]: the session, and the name it was
   issued for (the destination's, or the source's in a ticket). *)
let open_session_blob ~key ~ticket blob =
  let r =
    Byte_reader.of_string
      (Fbsr_crypto.Des.decrypt_cbc ~iv:zero_iv (Fbsr_crypto.Des.of_string key) blob)
  in
  let session_key = Byte_reader.bytes r 8 in
  let name = Byte_reader.bytes r (Byte_reader.u16 r) in
  let expiry = Int64.to_float (Byte_reader.u64 r) in
  ( { key = { Sealed.des = Fbsr_crypto.Des.of_string session_key; mac = session_key };
      ticket;
      expiry },
    name )

let protect t session payload =
  let w = Byte_writer.create () in
  Byte_writer.u8 w Sealed.flags;
  Byte_writer.u16 w (String.length session.ticket);
  Byte_writer.bytes w session.ticket;
  Sealed.seal t.ivs session.key ~head:(Byte_writer.contents w) ~extra:"" payload

let request_session t dst_name =
  t.kdc_requests <- t.kdc_requests + 1;
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
          match open_session_blob ~key:t.shared_key ~ticket for_client with
          | exception _ -> ()
          | session, dst_name ->
              Hashtbl.replace t.outgoing dst_name session;
              ignore (Request.complete t.requests dst_name (Ok session))))
  | "KFAI" -> (
      (* The KDC refused the destination: its parked datagrams are
         dropped, and the next datagram to it asks again. *)
      match Byte_reader.bytes r (Byte_reader.u16 r) with
      | exception Byte_reader.Truncated -> ()
      | dst_name ->
          ignore (Request.complete t.requests dst_name (Error "kdc refused the session")))
  | _ -> ()

(* A datagram to a destination without a live session waits on the
   destination's request to the KDC. *)
let session t (h : Ipv4.header) =
  let dst_name = Addr.to_string h.dst in
  let live =
    match Hashtbl.find_opt t.outgoing dst_name with
    | Some s when s.expiry > Host.now t.host -> Some s
    | Some _ | None -> None
  in
  Sealed.await t.requests dst_name live ~start:(fun () ->
      ((), fun _ -> request_session t dst_name))

let unprotect t ~now ~wire =
  Result.bind
    (Sealed.frame wire (fun r ->
         let flags = Byte_reader.u8 r in
         let ticket = Byte_reader.bytes r (Byte_reader.u16 r) in
         Ok (flags, ticket, 0)))
    (fun (ticket, tail) ->
      let cached = Hashtbl.find_opt t.incoming ticket in
      let session =
        match cached with
        | Some s -> Ok s
        | None -> (
            match open_session_blob ~key:t.shared_key ~ticket ticket with
            | exception _ -> Error Sealed.Unknown_key
            | s, _src_name -> Ok s)
      in
      match session with
      | Error e -> Error e
      | Ok s when s.expiry < now -> Error Sealed.Expired
      | Ok s ->
          (* A ticket's session is kept once a datagram under it opens:
             a ticket replayed under a forged MAC leaves no state. *)
          let opened = Sealed.open_ s.key tail in
          if Option.is_none cached && Result.is_ok opened then
            Hashtbl.replace t.incoming ticket s;
          opened)

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
      ivs = Lcg.create (Addr.to_int (Host.addr host));
      counters = { sent = 0; received = 0; dropped = 0 };
      kdc_requests = 0;
    }
  in
  Udp_stack.listen host ~port:local_port (fun ~src ~src_port:_ raw ->
      if Addr.equal src kdc_addr then handle_kdc_reply t raw);
  Host.set_output_hook host
    (Sealed.output t.counters
       ~bypass:(fun h _ -> Addr.equal h.Ipv4.dst kdc_addr)
       ~seal:(protect t) (session t));
  Host.set_input_hook host
    (Sealed.input t.counters
       ~bypass:(fun h _ -> Addr.equal h.Ipv4.src kdc_addr)
       (fun _ payload k -> k (unprotect t ~now:(Host.now host) ~wire:payload)));
  (* Worst case: flags + len + a ticket of about 32 bytes. *)
  Minitcp.set_mss_reduction host (Sealed.overhead ~head:(3 + 32));
  t

let counters t = t.counters
let kdc_requests t = t.kdc_requests
let sessions_out t = Hashtbl.length t.outgoing
let sessions_in t = Hashtbl.length t.incoming
