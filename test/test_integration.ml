(* Integration tests: whole-site scenarios combining the simulator, the
   FBS stack, the baselines and the attack harness. *)

open Fbsr_netsim
open Fbsr_fbs_ip

let check = Alcotest.check

(* --- A small site where everyone talks to everyone --- *)

let test_all_pairs_mesh () =
  let tb = Testbed.create () in
  let hosts =
    List.map
      (fun i ->
        Testbed.add_host tb ~name:(Printf.sprintf "h%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" i))
      [ 1; 2; 3; 4 ]
  in
  let received = Hashtbl.create 16 in
  List.iter
    (fun node ->
      Udp_stack.listen node.Testbed.host ~port:7 (fun ~src ~src_port:_ d ->
          Hashtbl.replace received (Addr.to_string src, d) ()))
    hosts;
  (* Every host sends to every other host. *)
  List.iter
    (fun (a : Testbed.node) ->
      List.iter
        (fun (b : Testbed.node) ->
          if a != b then
            Udp_stack.send a.Testbed.host ~src_port:7
              ~dst:(Host.addr b.Testbed.host) ~dst_port:7
              (Printf.sprintf "%s->%s" (Host.name a.Testbed.host)
                 (Host.name b.Testbed.host)))
        hosts)
    hosts;
  Testbed.run tb;
  check Alcotest.int "12 messages delivered" 12 (Hashtbl.length received);
  (* Each host fetched at most 3 certificates (its 3 peers) — senders
     fetch the peer's cert; receivers fetch the sender's cert too. *)
  List.iter
    (fun (n : Testbed.node) ->
      let f = (Mkd.stats n.Testbed.mkd).Mkd.fetches in
      check Alcotest.bool "fetches bounded by peers" true (f <= 3))
    hosts

(* --- TCP through FBS over a lossy, reordering network --- *)

let test_tcp_fbs_lossy () =
  let tb = Testbed.create ~faults:{ Link.perfect with Link.drop = 0.03 } () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let payload = String.init 60_000 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let received = Buffer.create 1000 in
  Minitcp.listen b.Testbed.host ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c = Minitcp.connect a.Testbed.host ~dst:(Host.addr b.Testbed.host) ~dst_port:80 in
  Minitcp.on_established c (fun () ->
      Minitcp.send c payload;
      Minitcp.close c);
  Testbed.run ~until:600.0 tb;
  check Alcotest.string "bulk data through FBS over loss" payload
    (Buffer.contents received)

(* --- Replaying a whole trace slice through real FBS stacks --- *)

let test_trace_replay_through_stacks () =
  (* Take a 5-minute synthetic trace slice between two hosts and push the
     datagrams through real FBS-protected hosts, verifying delivery and
     flow accounting end to end. *)
  let tb = Testbed.create () in
  let a = Testbed.add_host tb ~name:"client" ~addr:"10.1.0.1" in
  let b = Testbed.add_host tb ~name:"server" ~addr:"10.1.10.1" in
  let sc = Fbsr_traffic.Scenario.campus_lan ~seed:2 ~duration:300.0 ~desktops:2 () in
  (* Keep client->server UDP datagrams only, remapped onto our two hosts. *)
  let records =
    List.filteri
      (fun i (r : Fbsr_traffic.Record.t) -> r.protocol = 17 && i mod 2 = 0)
      sc.Fbsr_traffic.Scenario.records
  in
  let records =
    List.filteri (fun i _ -> i < 500) records (* keep the test fast *)
  in
  let delivered = ref 0 and expected = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr delivered);
  List.iter
    (fun (r : Fbsr_traffic.Record.t) ->
      incr expected;
      Engine.schedule (Testbed.engine tb) ~delay:r.time (fun () ->
          Udp_stack.send a.Testbed.host ~src_port:r.src_port
            ~dst:(Host.addr b.Testbed.host) ~dst_port:7
            (String.make (max 1 (min r.size 1400)) 'd')))
    records;
  Testbed.run tb;
  check Alcotest.int "all trace datagrams delivered" !expected !delivered;
  (* The sender's FAM classified them into a sane number of flows. *)
  let flows =
    (Fbsr_fbs.Fam.stats (Fbsr_fbs.Engine.fam (Stack.engine a.Testbed.stack)))
      .Fbsr_fbs.Fam.flows_started
  in
  check Alcotest.bool "multiple flows, far fewer than datagrams" true
    (flows >= 1 && flows < !expected)

(* --- FBS vs host-pair: the flow-separation property, end to end --- *)

let test_flow_separation_comparison () =
  (* Same attack against both schemes; FBS rejects, host-pair accepts. *)
  (* FBS side. *)
  let tb = Testbed.create () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let tap = Fbsr_baselines.Attacks.tap (Testbed.medium tb) in
  let delivered = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr delivered);
  Udp_stack.listen b.Testbed.host ~port:8 (fun ~src:_ ~src_port:_ _ -> incr delivered);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "flow A";
  Udp_stack.send a.Testbed.host ~src_port:8 ~dst:(Host.addr b.Testbed.host) ~dst_port:8
    "flow B";
  Testbed.run tb;
  check Alcotest.int "both flows delivered" 2 !delivered;
  let fbs_frames =
    List.filter_map
      (fun (_, raw) ->
        match Ipv4.decode raw with
        | h, payload
          when Addr.equal h.Ipv4.src (Host.addr a.Testbed.host)
               && h.Ipv4.protocol = Ipv4.proto_udp -> (
            match Fbsr_fbs.Header.decode payload with
            | Ok _ -> Some raw
            | Error _ -> None)
        | _ -> None
        | exception Ipv4.Bad_packet _ -> None)
      (Fbsr_baselines.Attacks.frames tap)
  in
  (match fbs_frames with
  | fa :: fb :: _ -> (
      match Fbsr_baselines.Attacks.splice_fbs ~header_from:fa ~body_from:fb with
      | Some forged ->
          let before = !delivered in
          Fbsr_baselines.Attacks.inject (Testbed.medium tb) forged;
          Testbed.run tb;
          check Alcotest.int "FBS rejects cross-flow splice" before !delivered
      | None -> Alcotest.fail "could not splice FBS frames")
  | _ -> Alcotest.fail "FBS frames not captured");
  (* The engine attributed the rejection to verification: the spliced
     body either fails to decrypt under the victim flow's key or decrypts
     to garbage that fails the MAC. *)
  let c = Fbsr_fbs.Engine.counters (Stack.engine b.Testbed.stack) in
  check Alcotest.bool "verification error recorded" true
    (Fbsr_fbs.Engine.drop_count c Fbsr_fbs.Engine.Mac
     + Fbsr_fbs.Engine.drop_count c Fbsr_fbs.Engine.Decrypt
     >= 1)

(* --- Clock skew: FBS's loose time synchronization requirement --- *)

let rec test_clock_skew_tolerance () =
  (* The receiver's idea of "now" is what the replay window checks; a
     sender whose clock is 1 minute off still communicates (window is
     +-2 min), one 10 minutes off does not. *)
  let _, s, d, es, ed = make_engines_for_skew () in
  let attrs =
    Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d ()
  in
  (* Sender clock: t=600s. Receiver clock: t=660s (1 min skew). *)
  let wire =
    Result.get_ok
      (Fbsr_fbs.Engine.send_sync es ~now:600.0 ~attrs ~secret:true ~payload:"x")
  in
  (match Fbsr_fbs.Engine.receive_sync ed ~now:660.0 ~src:s ~wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "1-minute skew rejected: %a" Fbsr_fbs.Engine.pp_error e);
  (* 10-minute skew. *)
  let wire2 =
    Result.get_ok
      (Fbsr_fbs.Engine.send_sync es ~now:600.0 ~attrs ~secret:true ~payload:"y")
  in
  match Fbsr_fbs.Engine.receive_sync ed ~now:1200.0 ~src:s ~wire:wire2 with
  | Error (Fbsr_fbs.Engine.Stale _) -> ()
  | _ -> Alcotest.fail "10-minute skew accepted"

and make_engines_for_skew () =
  let rng = Fbsr_util.Rng.create 41 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    ignore
      (Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
         ~group:group.Fbsr_crypto.Dh.name
         ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub));
    (Fbsr_fbs.Principal.of_string name, priv)
  in
  let s, s_priv = enroll "10.0.0.1" in
  let d, d_priv = enroll "10.0.0.2" in
  let resolver peer k =
    match Fbsr_cert.Authority.lookup ca (Fbsr_fbs.Principal.to_string peer) with
    | Some c -> k (Ok c)
    | None -> k (Error "unknown")
  in
  let mk local priv seed =
    let keying =
      Fbsr_fbs.Keying.create ~local ~group ~private_value:priv
        ~ca_public:(Fbsr_cert.Authority.public ca)
        ~ca_hash:(Fbsr_cert.Authority.hash ca)
        ~resolver
        ~clock:(fun () -> 0.0)
        ()
    in
    let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create seed) in
    let fam = Fbsr_fbs.Fam.create (Fbsr_fbs.Policy_five_tuple.policy ~alloc ()) in
    Fbsr_fbs.Engine.create ~keying ~fam ()
  in
  ((), s, d, mk s s_priv 1, mk d d_priv 2)

(* --- RPC over FBS: the paper's motivating datagram client, secured --- *)

let test_rpc_over_fbs () =
  (* RPC (the paper's third example of a datagram service) running over
     FBS-enabled hosts on a lossy network: the RPC layer's own retries
     handle loss, FBS supplies per-conversation protection, and neither
     interferes with the other — datagram semantics preserved end to end. *)
  let tb = Testbed.create ~faults:{ Link.perfect with Link.drop = 0.15 } () in
  let a = Testbed.add_host tb ~name:"client" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"server" ~addr:"10.0.0.2" in
  let server = Sunrpc.Server.install b.Testbed.host in
  Sunrpc.Server.register server ~prog:100003 ~proc:1 (fun arg -> "read:" ^ arg);
  let client = Sunrpc.create a.Testbed.host in
  let ok = ref 0 and failed = ref 0 in
  for i = 1 to 20 do
    Sunrpc.call client ~server:(Host.addr b.Testbed.host) ~server_port:111
      ~prog:100003 ~proc:1
      (Printf.sprintf "block-%d" i)
      (function Ok _ -> incr ok | Error _ -> incr failed)
  done;
  Testbed.run ~until:120.0 tb;
  check Alcotest.int "every call resolved" 20 (!ok + !failed);
  check Alcotest.bool "most calls succeeded through loss" true (!ok >= 18);
  (* All of it rode FBS: the engines saw the traffic. *)
  check Alcotest.bool "FBS protected the calls" true
    ((Fbsr_fbs.Engine.counters (Stack.engine a.Testbed.stack)).Fbsr_fbs.Engine.sends
     >= 20)

(* --- The live site driver --- *)

let test_live_site_small () =
  (* A small live run: every trace datagram through real stacks, zero
     losses, no MAC failures, flows and fetches within sane bounds. *)
  let r = Fbsr_experiments.Live_site.run ~seed:5 ~duration:300.0 ~desktops:2 () in
  check Alcotest.int "all delivered"
    r.Fbsr_experiments.Live_site.datagrams_sent
    r.Fbsr_experiments.Live_site.datagrams_delivered;
  check Alcotest.bool "datagrams flowed" true
    (r.Fbsr_experiments.Live_site.datagrams_sent > 100);
  check Alcotest.int "no MAC failures" 0 r.Fbsr_experiments.Live_site.mac_failures;
  check Alcotest.int "no replay rejections" 0
    r.Fbsr_experiments.Live_site.replay_rejections;
  check Alcotest.bool "flows far fewer than datagrams" true
    (r.Fbsr_experiments.Live_site.flows_started * 5
    < r.Fbsr_experiments.Live_site.datagrams_sent);
  (* One DH per communicating host pair direction at most. *)
  check Alcotest.bool "master keys bounded by pairs" true
    (r.Fbsr_experiments.Live_site.master_key_computations
    <= r.Fbsr_experiments.Live_site.hosts * r.Fbsr_experiments.Live_site.hosts);
  check Alcotest.bool "caches mostly hit" true
    (r.Fbsr_experiments.Live_site.tfkc_hit_rate > 0.9
    && r.Fbsr_experiments.Live_site.rfkc_hit_rate > 0.9)

(* --- A WAN deployment: T1 bandwidth, 35 ms propagation --- *)

let test_wan_deployment () =
  (* "For wide-area networks, the 'freshness' window may be large (on the
     order of minutes) to account for transmission delays" — run FBS over
     a slow, long link and check that (a) everything still works, (b) the
     cold-start penalty is dominated by the certificate-fetch round trip,
     (c) in-flight transit delay never trips the replay window. *)
  let tb =
    Testbed.create ~bandwidth_bps:1_544_000.0 (* T1 *) ()
  in
  let a = Testbed.add_host tb ~name:"west" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"east" ~addr:"10.0.0.2" in
  (* The medium's propagation is a fixed 5 us, so the WAN stressors here
     are the bandwidth and up to 2 ms of extra delay on every frame east
     sends, which reorders its ACKs.  West's full-size data frames take
     7.9 ms each on the T1, so 2 ms of delay after the wire could not
     reorder them; a hold-back on west's link sits before the wire, where
     a delayed segment falls behind the whole queued window. *)
  Host.set_link b.Testbed.host
    (Link.create ~seed:5
       ~profile:{ Link.perfect with Link.reorder = 1.0; reorder_delay = 0.002 }
       (Testbed.engine tb));
  let first_delivery = ref None in
  let got = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ ->
      if !first_delivery = None then first_delivery := Some (Testbed.now tb);
      incr got);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    (String.make 1000 'w');
  Testbed.run tb;
  check Alcotest.int "delivered over WAN" 1 !got;
  (* TCP bulk over the T1: throughput must be near the T1 rate, far below
     the LAN figures. *)
  let received = Buffer.create 1000 in
  let finish = ref 0.0 in
  Minitcp.listen b.Testbed.host ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c = Minitcp.connect a.Testbed.host ~dst:(Host.addr b.Testbed.host) ~dst_port:80 in
  let payload = String.make 200_000 'x' in
  let t0 = Testbed.now tb in
  Minitcp.on_established c (fun () ->
      Minitcp.send c payload;
      Minitcp.close c);
  Minitcp.on_close c (fun () -> finish := Testbed.now tb);
  Testbed.run ~until:(t0 +. 60.0) tb;
  check Alcotest.string "bulk intact over WAN" payload (Buffer.contents received);
  let goodput = float_of_int (String.length payload * 8) /. (!finish -. t0) in
  check Alcotest.bool "throughput bounded by T1" true (goodput < 1_544_000.0);
  (* Multi-ms delay reorders the ACK stream; the sender absorbs that
     instead of forcing go-back-N style window resends, so demand both
     robust progress and few retransmissions. *)
  check Alcotest.bool "reasonable progress despite reordering" true
    (goodput > 200_000.0);
  check Alcotest.bool "reordering absorbed without window resends" true
    (Minitcp.retransmits c <= 5)

(* --- Configuration matrix: every suite x secrecy --- *)

let test_configuration_matrix () =
  (* The same UDP exchange must work under every combination of algorithm
     suite and secrecy (secret vs authentication-only), and every FBS
     header on the wire must carry the secret bit the policy chose. *)
  List.iter
    (fun suite ->
      List.iter
        (fun secret ->
          let label =
            Printf.sprintf "%s/%s" (Fbsr_fbs.Suite.name suite)
              (if secret then "secret" else "auth-only")
          in
          let config =
            Stack.default_config ~suite
              ~secret_policy:(fun ~protocol:_ ~src_port:_ ~dst_port:_ -> secret)
              ()
          in
          let tb = Testbed.create ~config () in
          let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
          let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
          let secret_bits = ref [] in
          Medium.add_sniffer (Testbed.medium tb) (fun _ raw ->
              match Ipv4.decode raw with
              | h, payload
                when Addr.equal h.Ipv4.src (Host.addr a.Testbed.host)
                     && Addr.equal h.Ipv4.dst (Host.addr b.Testbed.host)
                     && h.Ipv4.protocol = Ipv4.proto_udp -> (
                  match Fbsr_fbs.Header.decode payload with
                  | Ok (fh, _) -> secret_bits := fh.Fbsr_fbs.Header.secret :: !secret_bits
                  | Error _ -> ())
              | _ -> ()
              | exception Ipv4.Bad_packet _ -> ());
          let got = ref [] in
          Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d ->
              got := d :: !got);
          Udp_stack.send a.Testbed.host ~src_port:7
            ~dst:(Host.addr b.Testbed.host) ~dst_port:7 ("ping " ^ label);
          Udp_stack.send a.Testbed.host ~src_port:7
            ~dst:(Host.addr b.Testbed.host) ~dst_port:7 ("pong " ^ label);
          Testbed.run tb;
          check
            Alcotest.(list string)
            (label ^ ": delivered")
            [ "ping " ^ label; "pong " ^ label ]
            (List.rev !got);
          check
            Alcotest.(list bool)
            (label ^ ": secret bit on the wire")
            [ secret; secret ] !secret_bits)
        [ true; false ])
    Fbsr_fbs.Suite.all

(* --- Failure injection: corrupted frames under load --- *)

let test_corruption_under_load () =
  let tb = Testbed.create () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let tap = Fbsr_baselines.Attacks.tap (Testbed.medium tb) in
  let delivered = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr delivered);
  for i = 1 to 20 do
    Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host)
      ~dst_port:7
      (Printf.sprintf "message %d" i)
  done;
  Testbed.run tb;
  check Alcotest.int "all genuine delivered" 20 !delivered;
  (* Replay every captured data frame with one corrupted byte each: none
     may be delivered as new messages. *)
  let data_frames =
    Fbsr_baselines.Attacks.between tap ~src:(Host.addr a.Testbed.host)
      ~dst:(Host.addr b.Testbed.host)
  in
  List.iteri
    (fun i (_, raw) ->
      let offset = Ipv4.header_size + 10 + (i mod 20) in
      if offset < String.length raw then
        Fbsr_baselines.Attacks.inject (Testbed.medium tb)
          (Fbsr_baselines.Attacks.flip_byte ~offset raw))
    data_frames;
  Testbed.run tb;
  check Alcotest.int "no corrupted frame delivered" 20 !delivered

let () =
  Alcotest.run "integration"
    [
      ( "site",
        [
          Alcotest.test_case "all-pairs mesh" `Quick test_all_pairs_mesh;
          Alcotest.test_case "tcp over fbs over loss" `Quick test_tcp_fbs_lossy;
          Alcotest.test_case "trace replay through stacks" `Quick
            test_trace_replay_through_stacks;
          Alcotest.test_case "configuration matrix (12 combos)" `Quick
            test_configuration_matrix;
          Alcotest.test_case "WAN deployment (T1 + jitter)" `Quick test_wan_deployment;
          Alcotest.test_case "live site (real stacks)" `Quick test_live_site_small;
          Alcotest.test_case "RPC over FBS over loss" `Quick test_rpc_over_fbs;
        ] );
      ( "security",
        [
          Alcotest.test_case "flow separation vs baselines" `Quick
            test_flow_separation_comparison;
          Alcotest.test_case "clock skew tolerance" `Quick test_clock_skew_tolerance;
          Alcotest.test_case "corruption under load" `Quick test_corruption_under_load;
        ] );
    ]
