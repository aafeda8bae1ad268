(* Tests for the application-layer FBS mapping: named principals,
   conversation-tag flows, envelope handling, spoofing resistance. *)

open Fbsr_netsim
open Fbsr_fbs_ip
open Fbsr_fbs_app

let check = Alcotest.check

let make_site () =
  let tb = Testbed.create () in
  let h1 = Testbed.add_plain_host tb ~name:"h1" ~addr:"10.0.0.1" in
  let h2 = Testbed.add_plain_host tb ~name:"h2" ~addr:"10.0.0.2" in
  let group = Testbed.group tb in
  let authority = Testbed.authority tb in
  let rng = Fbsr_util.Rng.create 77 in
  let make_user host name port =
    let private_value = Fbsr_crypto.Dh.gen_private group rng in
    let public = Fbsr_crypto.Dh.public group private_value in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll authority ~now:0.0 ~subject:name
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
  let alice = make_user h1 "alice@h1" 9000 in
  let bob = make_user h2 "bob@h2" 9000 in
  (tb, h1, h2, alice, bob)

let test_envelope_roundtrip () =
  let src = Fbsr_fbs.Principal.of_string "user@host" in
  let wire = "some fbs bytes" in
  match App_socket.decode_envelope (App_socket.encode_envelope ~src wire) with
  | Some (name, wire') ->
      check Alcotest.string "name" "user@host" name;
      check Alcotest.string "wire" wire wire'
  | None -> Alcotest.fail "envelope did not parse"

let test_envelope_garbage () =
  check Alcotest.bool "empty" true (App_socket.decode_envelope "" = None);
  check Alcotest.bool "short" true (App_socket.decode_envelope "\x00" = None);
  check Alcotest.bool "truncated name" true
    (App_socket.decode_envelope "\x00\x10abc" = None)

let test_app_exchange () =
  let tb, _, h2, alice, bob = make_site () in
  let got = ref [] in
  App_socket.on_receive bob (fun r ->
      got := (Fbsr_fbs.Principal.to_string r.App_socket.src, r.App_socket.payload) :: !got);
  App_socket.send alice ~dst:(App_socket.local bob) ~dst_addr:(Host.addr h2)
    ~tag:"chat" "hello bob";
  App_socket.send alice ~dst:(App_socket.local bob) ~dst_addr:(Host.addr h2)
    ~tag:"chat" "still me";
  Testbed.run tb;
  check Alcotest.int "both delivered" 2 (List.length !got);
  List.iter
    (fun (src, _) -> check Alcotest.string "authenticated source" "alice@h1" src)
    !got;
  (* Same tag: one flow, one master key. *)
  let fam = Fbsr_fbs.Engine.fam (App_socket.engine alice) in
  check Alcotest.int "one flow" 1 (Fbsr_fbs.Fam.stats fam).Fbsr_fbs.Fam.flows_started

let test_app_tags_separate_flows () =
  let tb, _, h2, alice, bob = make_site () in
  App_socket.on_receive bob (fun _ -> ());
  List.iter
    (fun tag ->
      App_socket.send alice ~dst:(App_socket.local bob) ~dst_addr:(Host.addr h2) ~tag
        (tag ^ " data"))
    [ "video"; "audio"; "whiteboard"; "video" ];
  Testbed.run tb;
  let fam = Fbsr_fbs.Engine.fam (App_socket.engine alice) in
  check Alcotest.int "three flows for three tags" 3
    (Fbsr_fbs.Fam.stats fam).Fbsr_fbs.Fam.flows_started;
  check Alcotest.int "four datagrams" 4 (Fbsr_fbs.Fam.stats fam).Fbsr_fbs.Fam.datagrams

let test_app_quiet_period_rotates_flow () =
  (* The app-tag policy is THRESHOLD-based like the 5-tuple one: a long
     quiet period on the same tag starts a fresh flow (fresh key). *)
  let tb, _, h2, alice, bob = make_site () in
  App_socket.on_receive bob (fun _ -> ());
  let send () =
    App_socket.send alice ~dst:(App_socket.local bob) ~dst_addr:(Host.addr h2)
      ~tag:"chat" "message"
  in
  send ();
  (* Within the 600 s default threshold: same flow. *)
  Engine.schedule (Testbed.engine tb) ~delay:100.0 send;
  (* Past it: new flow. *)
  Engine.schedule (Testbed.engine tb) ~delay:1000.0 send;
  Testbed.run tb;
  let fam = Fbsr_fbs.Engine.fam (App_socket.engine alice) in
  check Alcotest.int "two flows across the quiet period" 2
    (Fbsr_fbs.Fam.stats fam).Fbsr_fbs.Fam.flows_started

let test_app_spoofed_name_rejected () =
  let tb, h1, h2, alice, bob = make_site () in
  ignore h1;
  let got = ref 0 in
  App_socket.on_receive bob (fun _ -> incr got);
  (* Send a genuine datagram, then capture and rewrite the claimed name:
     the MAC is keyed by the alice<->bob master key, so claiming to be
     "mallory@h1" (also enrolled) must fail verification. *)
  let group = Testbed.group tb in
  let rng = Fbsr_util.Rng.create 99 in
  let m_priv = Fbsr_crypto.Dh.gen_private group rng in
  let m_pub = Fbsr_crypto.Dh.public group m_priv in
  let (_ : Fbsr_cert.Certificate.t) =
    Fbsr_cert.Authority.enroll (Testbed.authority tb) ~now:0.0 ~subject:"mallory@h1"
      ~group:group.Fbsr_crypto.Dh.name
      ~public_value:(Fbsr_crypto.Dh.public_to_bytes group m_pub)
  in
  let tap = Fbsr_baselines.Attacks.tap (Testbed.medium tb) in
  App_socket.send alice ~dst:(App_socket.local bob) ~dst_addr:(Host.addr h2)
    ~tag:"chat" "genuine";
  Testbed.run tb;
  check Alcotest.int "genuine delivered" 1 !got;
  (* Find the app datagram and rewrite the envelope name. *)
  let rewritten =
    List.find_map
      (fun (_, raw) ->
        match Ipv4.decode raw with
        | h, ip_payload when h.Ipv4.protocol = Ipv4.proto_udp -> (
            match Udp.decode ~src:h.Ipv4.src ~dst:h.Ipv4.dst ip_payload with
            | uh, udp_payload when uh.Udp.dst_port = 9000 -> (
                match App_socket.decode_envelope udp_payload with
                | Some (_, wire) ->
                    let forged_payload =
                      App_socket.encode_envelope
                        ~src:(Fbsr_fbs.Principal.of_string "mallory@h1") wire
                    in
                    let forged_udp =
                      Udp.encode ~src:h.Ipv4.src ~dst:h.Ipv4.dst
                        ~src_port:uh.Udp.src_port ~dst_port:uh.Udp.dst_port
                        forged_payload
                    in
                    let fh =
                      Ipv4.make ~ident:999 ~protocol:Ipv4.proto_udp ~src:h.Ipv4.src
                        ~dst:h.Ipv4.dst ~payload_length:(String.length forged_udp) ()
                    in
                    Some (Ipv4.encode fh forged_udp)
                | None -> None)
            | _ -> None
            | exception Udp.Bad_datagram _ -> None)
        | _ -> None
        | exception Ipv4.Bad_packet _ -> None)
      (Fbsr_baselines.Attacks.frames tap)
  in
  (match rewritten with
  | Some forged ->
      Fbsr_baselines.Attacks.inject (Testbed.medium tb) forged;
      Testbed.run tb;
      check Alcotest.int "spoofed name rejected" 1 !got;
      check Alcotest.bool "rejection counted" true
        ((App_socket.counters bob).App_socket.rejected >= 1)
  | None -> Alcotest.fail "could not capture app datagram")

let test_app_bidirectional () =
  let tb, h1, h2, alice, bob = make_site () in
  let alice_got = ref [] and bob_got = ref [] in
  App_socket.on_receive bob (fun r ->
      bob_got := r.App_socket.payload :: !bob_got;
      App_socket.send bob ~dst:r.App_socket.src ~dst_addr:r.App_socket.src_addr
        ~dst_port:r.App_socket.src_port ~tag:"chat" ("re: " ^ r.App_socket.payload));
  App_socket.on_receive alice (fun r -> alice_got := r.App_socket.payload :: !alice_got);
  ignore h1;
  App_socket.send alice ~dst:(App_socket.local bob) ~dst_addr:(Host.addr h2)
    ~tag:"chat" "ping";
  Testbed.run tb;
  check Alcotest.(list string) "bob got" [ "ping" ] !bob_got;
  check Alcotest.(list string) "alice got reply" [ "re: ping" ] !alice_got

let () =
  Alcotest.run "fbs_app"
    [
      ( "envelope",
        [
          Alcotest.test_case "roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "garbage" `Quick test_envelope_garbage;
        ] );
      ( "socket",
        [
          Alcotest.test_case "exchange" `Quick test_app_exchange;
          Alcotest.test_case "tags separate flows" `Quick test_app_tags_separate_flows;
          Alcotest.test_case "quiet period rotates flow" `Quick
            test_app_quiet_period_rotates_flow;
          Alcotest.test_case "spoofed name rejected" `Quick
            test_app_spoofed_name_rejected;
          Alcotest.test_case "bidirectional" `Quick test_app_bidirectional;
        ] );
    ]
