(* The application-layer mapping of FBS.

   The paper insists FBS "is not defined for any specific protocol layer"
   (Section 3) and names the application layer as a natural home:
   "application data with different semantics (e.g., video, audio, and
   whiteboard data) could be separated into their own flows" (Section 4).
   This module is that instantiation: FBS over UDP, with *named* principals
   (users/applications rather than hosts) and flows defined by an
   application-supplied conversation tag (the [Policy_app] FAM policy).

   Wire format inside the UDP payload:
     u16 name_len | source principal name | FBS wire (header + body)

   The claimed source name plays the role the IP source address plays in
   the IP mapping: the receiver uses it to select the pair-based master
   key, and a lie makes the MAC fail ("flow authentication").

   Unlike the IP mapping, this needs no kernel hooks at all — a userspace
   library linking against the same FBS engine, which is exactly the
   paper's layer-independence argument made executable. *)

open Fbsr_netsim

type received = {
  src : Fbsr_fbs.Principal.t;
  src_addr : Addr.t;
  src_port : int;
  payload : string;
  secret : bool;
}

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable rejected : int;
  mutable errors : int;
}

type t = {
  host : Host.t;
  port : int;
  engine : Fbsr_fbs.Engine.t;
  local : Fbsr_fbs.Principal.t;
  mutable on_receive : received -> unit;
  counters : counters;
}

let encode_envelope ~src wire =
  let name = Fbsr_fbs.Principal.to_string src in
  let n = String.length name in
  String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff)) ^ name ^ wire

let decode_envelope raw =
  if String.length raw < 2 then None
  else begin
    let n = (Char.code raw.[0] lsl 8) lor Char.code raw.[1] in
    if String.length raw < 2 + n then None
    else
      Some
        ( String.sub raw 2 n,
          String.sub raw (2 + n) (String.length raw - 2 - n) )
  end

let handle t ~src ~src_port raw =
  match decode_envelope raw with
  | None -> t.counters.rejected <- t.counters.rejected + 1
  | Some (name, wire) ->
      let peer = Fbsr_fbs.Principal.of_string name in
      Fbsr_fbs.Engine.receive t.engine ~now:(Host.now t.host) ~src:peer ~wire (function
        | Ok acc ->
            t.counters.received <- t.counters.received + 1;
            t.on_receive
              {
                src = peer;
                src_addr = src;
                src_port;
                payload = acc.Fbsr_fbs.Engine.payload;
                secret = acc.Fbsr_fbs.Engine.header.Fbsr_fbs.Header.secret;
              }
        | Error _ -> t.counters.rejected <- t.counters.rejected + 1)

let create ?(threshold = 600.0) ?(replay_window_minutes = 2) ~host ~port ~local ~group
    ~private_value ~ca_public ~ca_hash ~resolver () =
  let keying =
    Fbsr_fbs.Keying.create ~local ~group ~private_value ~ca_public ~ca_hash ~resolver
      ~clock:(fun () -> Host.now host)
      ()
  in
  let alloc = Fbsr_fbs_ip.Stack.sfl_allocator host 0xa11 in
  let fam = Fbsr_fbs.Fam.create (Fbsr_fbs.Policy_app.policy ~threshold ~alloc ()) in
  let engine = Fbsr_fbs.Engine.create ~replay_window_minutes ~keying ~fam () in
  let t =
    {
      host;
      port;
      engine;
      local;
      on_receive = (fun _ -> ());
      counters = { sent = 0; received = 0; rejected = 0; errors = 0 };
    }
  in
  Udp_stack.listen host ~port (fun ~src ~src_port raw -> handle t ~src ~src_port raw);
  t

let on_receive t f = t.on_receive <- f

(* Send one application datagram in the conversation [tag].  Datagrams
   with the same tag to the same destination principal form one flow
   regardless of the transport underneath. *)
let send t ~dst ~dst_addr ?(dst_port = -1) ~tag ?(secret = true) payload =
  let dst_port = if dst_port < 0 then t.port else dst_port in
  let attrs = Fbsr_fbs.Fam.attrs ~app_tag:tag ~src:t.local ~dst () in
  Fbsr_fbs.Engine.send t.engine ~now:(Host.now t.host) ~attrs ~secret ~payload
    (function
    | Ok wire ->
        t.counters.sent <- t.counters.sent + 1;
        Udp_stack.send t.host ~src_port:t.port ~dst:dst_addr ~dst_port
          (encode_envelope ~src:t.local wire)
    | Error _ -> t.counters.errors <- t.counters.errors + 1)

let engine t = t.engine
let counters t = t.counters
let local t = t.local
