(* Application-layer FBS: a conferencing tool separating video, audio and
   whiteboard data into their own flows (the paper's Section 4 example).

   Two users on plain hosts (no kernel FBS at all) run FBS as a userspace
   library over UDP.  Principals are user names, not IP addresses; each
   media type's conversation tag defines a flow, so each medium gets its
   own key — and the flow monitor shows three distinct sfls per direction.

   Run with:  dune exec examples/app_layer_flows.exe *)

open Fbsr_netsim
open Fbsr_fbs_ip
open Fbsr_fbs_app

let () =
  let tb = Testbed.create () in
  (* Plain hosts: the kernel knows nothing about FBS here. *)
  let h1 = Testbed.add_plain_host tb ~name:"laptop-1" ~addr:"10.0.0.1" in
  let h2 = Testbed.add_plain_host tb ~name:"laptop-2" ~addr:"10.0.0.2" in
  let group = Testbed.group tb in
  let authority = Testbed.authority tb in
  let rng = Fbsr_util.Rng.create 2026 in

  let make_user host name port =
    let private_value = Fbsr_crypto.Dh.gen_private group rng in
    let public = Fbsr_crypto.Dh.public group private_value in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll authority ~now:(Testbed.now tb) ~subject:name
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group public)
    in
    let mkd =
      Mkd.create ~local_port:(port + 1000) ~ca_addr:(Testbed.ca_addr tb)
        ~ca_port:(Ca_server.port (Testbed.ca_server tb)) host
    in
    App_socket.create ~host ~port
      ~local:(Fbsr_fbs.Principal.of_string name)
      ~group ~private_value
      ~ca_public:(Fbsr_cert.Authority.public authority)
      ~resolver:(Mkd.resolver mkd) ()
  in
  let suvo = make_user h1 "suvo@laptop-1" 9000 in
  let thomas = make_user h2 "thomas@laptop-2" 9000 in

  let media_seen = Hashtbl.create 8 in
  App_socket.on_receive thomas (fun r ->
      let kind = String.sub r.App_socket.payload 0 (String.index r.App_socket.payload ':') in
      Hashtbl.replace media_seen kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt media_seen kind)));

  (* Suvo streams three media types interleaved. *)
  let send_media tag i =
    App_socket.send suvo
      ~dst:(App_socket.local thomas)
      ~dst_addr:(Host.addr h2) ~tag
      (Printf.sprintf "%s:frame %d" tag i)
  in
  for i = 1 to 5 do
    Engine.schedule (Testbed.engine tb)
      ~delay:(0.1 *. float_of_int i)
      (fun () ->
        send_media "video" i;
        send_media "audio" i;
        if i mod 2 = 1 then send_media "whiteboard" i)
  done;
  Testbed.run tb;

  Printf.printf "thomas received:\n";
  Hashtbl.iter (Printf.printf "  %-10s %d datagrams\n") media_seen;
  let fam = Fbsr_fbs.Engine.fam (App_socket.engine suvo) in
  Printf.printf "\nsuvo's FAM started %d flows (one per media type):\n"
    (Fbsr_fbs.Fam.stats fam).Fbsr_fbs.Fam.flows_started;
  let kc = Fbsr_fbs.Keying.counters (Fbsr_fbs.Engine.keying (App_socket.engine suvo)) in
  Printf.printf
    "one master key (%d DH computation) serves all three flows; each flow has its \
     own key derived from its sfl.\n"
    kc.Fbsr_fbs.Keying.master_key_computations;
  Printf.printf
    "\nSame FBS engine as the kernel mapping — running entirely in userspace over \
     UDP,\nwith user-level principals. This is the paper's layer independence claim, \
     executable.\n"
