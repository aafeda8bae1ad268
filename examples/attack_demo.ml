(* Attack demonstrations (Section 6 of the paper).

   An attacker taps the shared segment, then tries:
   1. replaying a captured datagram immediately (inside the freshness
      window) — succeeds at the FBS layer, exactly as the paper concedes;
   2. replaying the same datagram 10 minutes later — rejected (stale
      timestamp);
   3. the same late replay against an FBS receiver running the strict
      duplicate-suppression extension — rejected even inside the window;
   4. cut-and-paste across two FBS flows — rejected (per-flow keys);
   5. cut-and-paste under direct host-pair keying — ACCEPTED, reproducing
      the Section 2.2 weakness FBS fixes.

   Run with:  dune exec examples/attack_demo.exe *)

open Fbsr_netsim
open Fbsr_fbs_ip
open Fbsr_baselines

let deliveries = ref []

let fresh_fbs_site ~strict () =
  deliveries := [];
  let config = Stack.default_config ~strict_replay:strict () in
  let tb = Testbed.create ~config () in
  let alice = Testbed.add_host tb ~name:"alice" ~addr:"10.0.0.1" in
  let bob = Testbed.add_host tb ~name:"bob" ~addr:"10.0.0.2" in
  let tap = Attacks.tap (Testbed.medium tb) in
  Udp_stack.listen bob.Testbed.host ~port:9000 (fun ~src:_ ~src_port:_ data ->
      deliveries := data :: !deliveries);
  Udp_stack.listen bob.Testbed.host ~port:9001 (fun ~src:_ ~src_port:_ data ->
      deliveries := data :: !deliveries);
  (tb, alice, bob, tap)

let fbs_frames tap ~src ~dst =
  List.filter_map
    (fun (_, raw) ->
      match Ipv4.decode raw with
      | h, payload
        when Addr.equal h.Ipv4.src src && Addr.equal h.Ipv4.dst dst
             && h.Ipv4.protocol = Ipv4.proto_udp -> (
          match Fbsr_fbs.Header.decode payload with Ok _ -> Some raw | Error _ -> None)
      | _ -> None
      | exception Ipv4.Bad_packet _ -> None)
    (Attacks.frames tap)

let () =
  Printf.printf "=== 1+2: replay inside vs outside the freshness window ===\n";
  let tb, alice, bob, tap = fresh_fbs_site ~strict:false () in
  Udp_stack.send alice.Testbed.host ~src_port:5000 ~dst:(Host.addr bob.Testbed.host)
    ~dst_port:9000 "transfer $100 to carol";
  Testbed.run tb;
  let captured =
    match fbs_frames tap ~src:(Host.addr alice.Testbed.host) ~dst:(Host.addr bob.Testbed.host) with
    | f :: _ -> f
    | [] -> failwith "nothing captured"
  in
  Printf.printf "victim delivered: %d message(s)\n" (List.length !deliveries);
  (* Immediate replay: inside the +-2 minute window. *)
  Attacks.replay (Testbed.medium tb) captured;
  Testbed.run tb;
  Printf.printf "after immediate replay: %d (replay ACCEPTED inside window — the \
                 paper's acknowledged limit)\n"
    (List.length !deliveries);
  (* Late replay: past the window. *)
  Engine.schedule (Testbed.engine tb) ~delay:600.0 (fun () ->
      Attacks.replay (Testbed.medium tb) captured);
  Testbed.run tb;
  Printf.printf "after +10 min replay: %d (stale timestamp REJECTED)\n"
    (List.length !deliveries);
  let err =
    Fbsr_fbs.Engine.drop_count
      (Fbsr_fbs.Engine.counters (Stack.engine bob.Testbed.stack))
      Fbsr_fbs.Engine.Stale
  in
  Printf.printf "bob's stale-timestamp rejections: %d\n\n" err;

  Printf.printf "=== 3: strict duplicate suppression (extension beyond the paper) ===\n";
  let tb, alice, bob, tap = fresh_fbs_site ~strict:true () in
  Udp_stack.send alice.Testbed.host ~src_port:5000 ~dst:(Host.addr bob.Testbed.host)
    ~dst_port:9000 "transfer $100 to carol";
  Testbed.run tb;
  let captured =
    List.hd (fbs_frames tap ~src:(Host.addr alice.Testbed.host) ~dst:(Host.addr bob.Testbed.host))
  in
  let before = List.length !deliveries in
  Attacks.replay (Testbed.medium tb) captured;
  Testbed.run tb;
  Printf.printf "immediate replay with strict_replay=true: %s\n\n"
    (if List.length !deliveries = before then "REJECTED (duplicate)" else "accepted");

  Printf.printf "=== 4: cut-and-paste across FBS flows ===\n";
  let tb, alice, bob, tap = fresh_fbs_site ~strict:false () in
  Udp_stack.send alice.Testbed.host ~src_port:5000 ~dst:(Host.addr bob.Testbed.host)
    ~dst_port:9000 "flow A secret";
  Udp_stack.send alice.Testbed.host ~src_port:6000 ~dst:(Host.addr bob.Testbed.host)
    ~dst_port:9001 "flow B secret";
  Testbed.run tb;
  (match fbs_frames tap ~src:(Host.addr alice.Testbed.host) ~dst:(Host.addr bob.Testbed.host) with
  | a :: b :: _ ->
      let before = List.length !deliveries in
      (match Attacks.splice_fbs ~header_from:a ~body_from:b with
      | Some forged ->
          Attacks.inject (Testbed.medium tb) forged;
          Testbed.run tb;
          let mac_errs =
            Fbsr_fbs.Engine.drop_count
              (Fbsr_fbs.Engine.counters (Stack.engine bob.Testbed.stack))
              Fbsr_fbs.Engine.Mac
          in
          Printf.printf "spliced packet: %s (MAC errors at bob: %d)\n\n"
            (if List.length !deliveries = before then "REJECTED — per-flow keys"
             else "accepted?!")
            mac_errs
      | None -> Printf.printf "could not build splice\n\n")
  | _ -> Printf.printf "not enough frames captured\n\n");

  Printf.printf "=== 5: cut-and-paste under direct host-pair keying ===\n";
  (* Build a host-pair-keyed site: same master key for ALL traffic between
     the two hosts. *)
  let tb = Testbed.create () in
  let alice = Testbed.add_plain_host tb ~name:"alice" ~addr:"10.0.0.1" in
  let bob = Testbed.add_plain_host tb ~name:"bob" ~addr:"10.0.0.2" in
  let authority = Testbed.authority tb in
  let group = Testbed.group tb in
  let install host =
    let rng = Fbsr_util.Rng.create (Addr.to_int (Host.addr host)) in
    let private_value = Fbsr_crypto.Dh.gen_private group rng in
    let public = Fbsr_crypto.Dh.public group private_value in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll authority ~now:0.0
        ~subject:(Addr.to_string (Host.addr host))
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group public)
    in
    let resolver peer k =
      match Fbsr_cert.Authority.lookup authority (Fbsr_fbs.Principal.to_string peer) with
      | Some c -> k (Ok c)
      | None -> k (Error "unknown")
    in
    Hostpair.install ~variant:Hostpair.Direct ~private_value ~group
      ~ca_public:(Fbsr_cert.Authority.public authority)
      ~ca_hash:(Fbsr_cert.Authority.hash authority)
      ~resolver host
  in
  let _ = install alice and _ = install bob in
  let tap = Attacks.tap (Testbed.medium tb) in
  deliveries := [];
  Udp_stack.listen bob ~port:9000 (fun ~src:_ ~src_port:_ data ->
      deliveries := ("9000:" ^ data) :: !deliveries);
  Udp_stack.listen bob ~port:9001 (fun ~src:_ ~src_port:_ data ->
      deliveries := ("9001:" ^ data) :: !deliveries);
  Udp_stack.send alice ~src_port:5000 ~dst:(Host.addr bob) ~dst_port:9000
    "conversation A: payroll data";
  Udp_stack.send alice ~src_port:6000 ~dst:(Host.addr bob) ~dst_port:9001
    "conversation B: public data";
  Testbed.run tb;
  let frames = Attacks.between tap ~src:(Host.addr alice) ~dst:(Host.addr bob) in
  (match frames with
  | (_, a) :: (_, b) :: _ ->
      let before = List.length !deliveries in
      (match Attacks.splice_hostpair ~envelope_from:a ~body_from:b with
      | Some forged ->
          Attacks.inject (Testbed.medium tb) forged;
          Testbed.run tb;
          Printf.printf
            "spliced packet under host-pair keying: %s\n"
            (if List.length !deliveries > before then
               "ACCEPTED — one master key per host pair cannot separate \
                conversations (Section 2.2)"
             else "rejected");
          List.iter (Printf.printf "  bob saw: %s\n") (List.rev !deliveries)
      | None -> Printf.printf "could not build splice\n")
  | _ -> Printf.printf "not enough frames captured\n");
  Printf.printf "\nFBS's per-flow keys close the splice channel; host-pair keying \
                 leaves it open.\n"
