(* Tests for the FBS-to-IP mapping: MKD protocol and daemon, CA service,
   the stack hooks, bypass, suspension across certificate fetches,
   fragmentation interplay and the Section 7.1 port-reuse attack. *)

open Fbsr_netsim
open Fbsr_fbs_ip

let check = Alcotest.check

(* --- MKD protocol codec --- *)

let test_mkd_protocol_roundtrip () =
  let req = Mkd_protocol.Request "10.0.0.9" in
  (match Mkd_protocol.decode (Mkd_protocol.encode req) with
  | Mkd_protocol.Request n -> check Alcotest.string "request" "10.0.0.9" n
  | _ -> Alcotest.fail "wrong message");
  let fail_msg = Mkd_protocol.Failure { subject = "10.0.0.9"; reason = "nope" } in
  (match Mkd_protocol.decode (Mkd_protocol.encode fail_msg) with
  | Mkd_protocol.Failure { subject; reason } ->
      check Alcotest.string "failure names its subject" "10.0.0.9" subject;
      check Alcotest.string "failure reason" "nope" reason
  | _ -> Alcotest.fail "wrong message");
  (* Certificate roundtrip. *)
  let rng = Fbsr_util.Rng.create 1 in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let cert =
    Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:"10.0.0.9" ~group:"g"
      ~public_value:"pub"
  in
  match Mkd_protocol.decode (Mkd_protocol.encode (Mkd_protocol.Certificate cert)) with
  | Mkd_protocol.Certificate c ->
      check Alcotest.string "subject survives" "10.0.0.9" c.Fbsr_cert.Certificate.subject
  | _ -> Alcotest.fail "wrong message"

let test_mkd_protocol_garbage () =
  List.iter
    (fun raw ->
      match Mkd_protocol.decode raw with
      | _ -> Alcotest.failf "accepted %S" raw
      | exception Mkd_protocol.Bad_message _ -> ())
    [
      "";
      "FBS";
      "XXXX\x02\x01\x00\x01a";
      (* Version 1 failures did not name their subject. *)
      "FBSC\x01\x03\x00\x04nope";
      "FBSC\x02\x09\x00\x01a";
      (* A failure whose reason is cut off. *)
      "FBSC\x02\x03\x00\x01a\x00\x04no";
    ]

(* --- Testbed-level plumbing --- *)

let make_pair ?config () =
  let tb = Testbed.create ?config () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  (tb, a, b)

let test_mkd_fetch_roundtrip () =
  let tb, a, b = make_pair () in
  let resolver = Mkd.resolver a.Testbed.mkd in
  let got = ref None in
  resolver
    (Fbsr_fbs.Principal.of_string (Addr.to_string (Host.addr b.Testbed.host)))
    (fun r -> got := Some r);
  check Alcotest.bool "pending until network runs" true (!got = None);
  Testbed.run tb;
  (match !got with
  | Some (Ok cert) ->
      check Alcotest.string "right subject"
        (Addr.to_string (Host.addr b.Testbed.host))
        cert.Fbsr_cert.Certificate.subject
  | _ -> Alcotest.fail "fetch failed");
  check Alcotest.int "served" 1 (Ca_server.requests_served (Testbed.ca_server tb))

let test_mkd_unknown_principal () =
  let tb, a, _ = make_pair () in
  let resolver = Mkd.resolver a.Testbed.mkd in
  let got = ref None in
  resolver (Fbsr_fbs.Principal.of_string "10.99.99.99") (fun r -> got := Some r);
  Testbed.run tb;
  match !got with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "unknown principal resolved"

(* The CA's negative reply names the request it answers, so concurrent
   fetches of unknown names each fail at once instead of waiting out
   their retransmissions. *)
let test_mkd_unknown_names_fail_at_once () =
  let tb, a, _ = make_pair () in
  let resolver = Mkd.resolver a.Testbed.mkd in
  let failed_at = ref [] in
  List.iter
    (fun name ->
      resolver (Fbsr_fbs.Principal.of_string name) (function
        | Error _ -> failed_at := Testbed.now tb :: !failed_at
        | Ok _ -> Alcotest.fail "unknown principal resolved"))
    [ "10.99.99.98"; "10.99.99.99" ];
  Testbed.run tb;
  check Alcotest.int "both failed" 2 (List.length !failed_at);
  List.iter
    (fun at ->
      check Alcotest.bool "failed before the first timeout" true
        (at < Mkd.default_config.Mkd.timeout))
    !failed_at;
  let st = Mkd.stats a.Testbed.mkd in
  check Alcotest.int "fetches" 2 st.Mkd.fetches;
  check Alcotest.int "no retransmissions" 0 st.Mkd.retransmissions;
  check Alcotest.int "failures" 2 st.Mkd.failures

let test_mkd_coalesces_requests () =
  let tb, a, b = make_pair () in
  let resolver = Mkd.resolver a.Testbed.mkd in
  let peer = Fbsr_fbs.Principal.of_string (Addr.to_string (Host.addr b.Testbed.host)) in
  let done_count = ref 0 in
  resolver peer (fun _ -> incr done_count);
  resolver peer (fun _ -> incr done_count);
  resolver peer (fun _ -> incr done_count);
  Testbed.run tb;
  check Alcotest.int "all continuations" 3 !done_count;
  check Alcotest.int "one fetch" 1 (Mkd.stats a.Testbed.mkd).Mkd.fetches

(* Under total loss the default schedule is fixed: 3 transmissions with
   timeouts of 2, 4 and 8 s, each +-10%, so the fetch is terminal in
   [12.6, 15.4] s of simulated time. *)
let test_mkd_retransmits_on_loss () =
  let tb = Testbed.create ~faults:{ Link.perfect with Link.drop = 1.0 } () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let resolver = Mkd.resolver a.Testbed.mkd in
  let got = ref None in
  resolver
    (Fbsr_fbs.Principal.of_string (Addr.to_string (Host.addr b.Testbed.host)))
    (fun r -> got := Some (r, Testbed.now tb));
  Testbed.run ~until:60.0 tb;
  (match !got with
  | Some (Error _, at) ->
      check Alcotest.bool
        (Printf.sprintf "terminal at %.2f s, within [12.6, 15.4]" at)
        true
        (at >= 12.6 && at <= 15.4)
  | Some (Ok _, _) -> Alcotest.fail "fetch succeeded through a dead network"
  | None -> Alcotest.fail "fetch never completed");
  let st = Mkd.stats a.Testbed.mkd in
  check Alcotest.int "one fetch" 1 st.Mkd.fetches;
  check Alcotest.int "two retransmissions" 2 st.Mkd.retransmissions;
  check Alcotest.int "one failure" 1 st.Mkd.failures;
  check Alcotest.int "three armed timeouts" 3
    (Fbsr_util.Metrics.get (Testbed.metrics tb) "fbs_ip.mkd.backoff_seconds")

(* --- Stack end-to-end --- *)

let test_stack_udp_end_to_end () =
  let tb, a, b = make_pair () in
  let got = ref [] in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  List.iter
    (fun m ->
      Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host)
        ~dst_port:7 m)
    [ "one"; "two"; "three" ];
  Testbed.run tb;
  check Alcotest.int "all delivered" 3 (List.length !got);
  let sc = Stack.counters a.Testbed.stack in
  check Alcotest.int "suspended on cold start" 3 sc.Stack.suspended_out;
  check Alcotest.int "all resumed" 3 sc.Stack.resumed;
  check Alcotest.int "one fetch" 1 (Mkd.stats a.Testbed.mkd).Mkd.fetches

(* The stack names peers through a fixed-size memo: more peers than it
   has slots must still each get their own principal, in both
   directions, round after round (a wrong one fails the MAC). *)
let test_stack_many_peers_memo () =
  let tb = Testbed.create () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let peers =
    List.init 70 (fun i ->
        Testbed.add_host tb ~name:(Printf.sprintf "p%d" i)
          ~addr:(Printf.sprintf "10.0.%d.%d" (1 + (i / 50)) (1 + (i mod 50))))
  in
  let at_a = ref [] and replies = Hashtbl.create 70 in
  Udp_stack.listen a.Testbed.host ~port:7 (fun ~src ~src_port d ->
      at_a := (Addr.to_string src, d) :: !at_a;
      Udp_stack.send a.Testbed.host ~src_port:7 ~dst:src ~dst_port:src_port d);
  List.iter
    (fun (p : Testbed.node) ->
      let me = Addr.to_string (Host.addr p.Testbed.host) in
      Udp_stack.listen p.Testbed.host ~port:8 (fun ~src:_ ~src_port:_ d ->
          Hashtbl.replace replies me (d :: Option.value ~default:[] (Hashtbl.find_opt replies me))))
    peers;
  for round = 0 to 2 do
    Engine.schedule (Testbed.engine tb) ~delay:(float_of_int round) (fun () ->
        List.iter
          (fun (p : Testbed.node) ->
            Udp_stack.send p.Testbed.host ~src_port:8 ~dst:(Host.addr a.Testbed.host)
              ~dst_port:7
              (Printf.sprintf "%s/%d" (Addr.to_string (Host.addr p.Testbed.host)) round))
          peers)
  done;
  Testbed.run tb;
  check Alcotest.int "every request reached a" (3 * 70) (List.length !at_a);
  List.iter
    (fun (src, d) ->
      if not (String.starts_with ~prefix:(src ^ "/") d) then
        Alcotest.failf "%S arrived from %s" d src)
    !at_a;
  List.iter
    (fun (p : Testbed.node) ->
      let me = Addr.to_string (Host.addr p.Testbed.host) in
      check
        Alcotest.(list string)
        (me ^ " got its own replies")
        (List.init 3 (Printf.sprintf "%s/%d" me))
        (List.sort compare (Option.value ~default:[] (Hashtbl.find_opt replies me))))
    peers

(* Every stack seeds its sfl allocator and its confounder generator
   alike, so two senders' first datagrams to one receiver carry the same
   sfl, confounder and timestamp.  Strict replay must key on the sender
   too, or the second one dies as a "duplicate". *)
let test_stack_strict_replay_two_senders () =
  let tb = Testbed.create ~config:(Stack.default_config ~strict_replay:true ()) () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let c = Testbed.add_host tb ~name:"c" ~addr:"10.0.0.3" in
  let got = ref [] in
  Udp_stack.listen c.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  List.iter
    (fun (n : Testbed.node) ->
      Udp_stack.send n.Testbed.host ~src_port:7 ~dst:(Host.addr c.Testbed.host)
        ~dst_port:7
        ("from " ^ Addr.to_string (Host.addr n.Testbed.host)))
    [ a; b ];
  Testbed.run tb;
  check Alcotest.(list string) "both delivered" [ "from 10.0.0.1"; "from 10.0.0.2" ]
    (List.sort compare !got);
  let ec = Fbsr_fbs.Engine.counters (Stack.engine c.Testbed.stack) in
  check Alcotest.int "accepted" 2 ec.Fbsr_fbs.Engine.accepted;
  check Alcotest.int "no duplicates" 0
    (Fbsr_fbs.Engine.drop_count ec Fbsr_fbs.Engine.Duplicate)

(* A lone datagram on a cold flow: the receiver has no master key for
   the sender, so the receive suspends on the MKD fetch and [input_hook]
   returns without a verdict.  The resumed keying continuation must open
   the datagram inline and deliver it exactly once, through the parked-
   datagram upcall, and the stack must count the suspension and the
   resumption. *)
let test_stack_cold_flow_receive_resumes () =
  let tb, a, b = make_pair () in
  let got = ref [] in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d ->
      got := d :: !got);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host)
    ~dst_port:7 "lone cold-flow datagram";
  Testbed.run tb;
  check
    Alcotest.(list string)
    "delivered exactly once after the fetch" [ "lone cold-flow datagram" ] !got;
  let sc = Stack.counters b.Testbed.stack in
  check Alcotest.int "suspended on the receive-side key fetch" 1
    sc.Stack.suspended_in;
  check Alcotest.int "resumed once the key arrived" 1 sc.Stack.resumed;
  check Alcotest.int "received" 1 sc.Stack.received;
  check Alcotest.int "nothing dropped" 0 sc.Stack.dropped_error

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_stack_wire_is_protected () =
  let tb, a, b = make_pair () in
  let fbs_frames = ref 0 and bypass_frames = ref 0 and leaked = ref false in
  let ca = Testbed.ca_addr tb in
  Medium.add_sniffer (Testbed.medium tb) (fun _ raw ->
      match Ipv4.decode raw with
      | h, payload ->
          if contains payload "SECRET-MARKER" then leaked := true;
          if Addr.equal h.Ipv4.src ca || Addr.equal h.Ipv4.dst ca then
            incr bypass_frames
          else if
            Addr.equal h.Ipv4.src (Host.addr a.Testbed.host)
            && h.Ipv4.protocol = Ipv4.proto_udp
          then begin
            match Fbsr_fbs.Header.decode payload with
            | Ok _ -> incr fbs_frames
            | Error _ -> ()
          end
      | exception Ipv4.Bad_packet _ -> ());
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "SECRET-MARKER payload";
  Testbed.run tb;
  check Alcotest.bool "fbs header on data frames" true (!fbs_frames >= 1);
  check Alcotest.bool "bypass traffic happened" true (!bypass_frames >= 2);
  check Alcotest.bool "plaintext never on the wire" false !leaked

let test_stack_auth_only_policy () =
  let config =
    Stack.default_config
      ~secret_policy:(fun ~protocol:_ ~src_port:_ ~dst_port -> dst_port <> 7)
      ()
  in
  let tb, a, b = make_pair ~config () in
  let saw_plain = ref false in
  Medium.add_sniffer (Testbed.medium tb) (fun _ raw ->
      match Ipv4.decode raw with
      | _, payload -> if contains payload "VISIBLE" then saw_plain := true
      | exception Ipv4.Bad_packet _ -> ());
  let got = ref "" in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "VISIBLE payload";
  Testbed.run tb;
  check Alcotest.string "delivered" "VISIBLE payload" !got;
  check Alcotest.bool "plaintext visible (auth-only)" true !saw_plain

let test_stack_fragmentation_of_big_datagrams () =
  let tb, a, b = make_pair () in
  let got = ref "" in
  Udp_stack.listen b.Testbed.host ~port:9 (fun ~src:_ ~src_port:_ d -> got := d);
  let payload = String.init 6000 (fun i -> Char.chr ((i * 3) land 0xff)) in
  Udp_stack.send a.Testbed.host ~src_port:9 ~dst:(Host.addr b.Testbed.host) ~dst_port:9
    payload;
  Testbed.run tb;
  check Alcotest.string "big datagram through FBS + fragmentation" payload !got;
  check Alcotest.bool "was fragmented" true
    ((Host.stats a.Testbed.host).Host.fragments_out > 0)

let test_stack_tcp_with_mss_fix () =
  let tb, a, b = make_pair () in
  let received = Buffer.create 1000 in
  Minitcp.listen b.Testbed.host ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c = Minitcp.connect a.Testbed.host ~dst:(Host.addr b.Testbed.host) ~dst_port:80 in
  let expected_mss =
    1500 - Ipv4.header_size - Tcp_seg.header_size
    - Fbsr_fbs.Engine.wire_overhead (Stack.engine a.Testbed.stack)
  in
  check Alcotest.int "MSS shrunk by FBS overhead" expected_mss (Minitcp.mss c);
  let payload = String.init 50_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Minitcp.on_established c (fun () ->
      Minitcp.send c payload;
      Minitcp.close c);
  Testbed.run tb;
  check Alcotest.string "bulk data intact" payload (Buffer.contents received);
  check Alcotest.int "no send errors" 0 (Host.stats a.Testbed.host).Host.send_errors

(* The tcp_output fix must hold for connections established before the
   armor published its header size, not just after: re-install the
   stacks around a live connection and check both connections size
   segments under the armor's wire overhead. *)
let test_stack_mss_honored_before_and_after_publication () =
  let tb, a, b = make_pair () in
  (* Tear FBS down so a connection can be established with no published
     allowance. *)
  Stack.uninstall a.Testbed.stack;
  Stack.uninstall b.Testbed.stack;
  let received = Buffer.create 1000 in
  Minitcp.listen b.Testbed.host ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c_before =
    Minitcp.connect a.Testbed.host ~dst:(Host.addr b.Testbed.host) ~dst_port:80
  in
  Testbed.run tb (* complete the plain-IP handshake *);
  check Alcotest.int "full mss while FBS is down" (1500 - 20 - 20)
    (Minitcp.mss c_before);
  (* The security layer comes up underneath the live connection: each
     armor publishes its overhead at install time. *)
  let reinstall (n : Testbed.node) =
    let config =
      Stack.default_config ~bypass:(fun ad -> Addr.equal ad (Testbed.ca_addr tb)) ()
    in
    Stack.install ~config ~private_value:n.Testbed.private_value
      ~group:(Testbed.group tb)
      ~ca_public:(Fbsr_cert.Authority.public (Testbed.authority tb))
      ~ca_hash:(Fbsr_cert.Authority.hash (Testbed.authority tb))
      ~resolver:(Mkd.resolver n.Testbed.mkd) n.Testbed.host
  in
  let stack_a = reinstall a in
  let _stack_b = reinstall b in
  let expected_mss =
    1500 - Ipv4.header_size - Tcp_seg.header_size
    - Fbsr_fbs.Engine.wire_overhead (Stack.engine stack_a)
  in
  check Alcotest.int "pre-publication connection honors the reduction"
    expected_mss (Minitcp.mss c_before);
  let c_after =
    Minitcp.connect a.Testbed.host ~dst:(Host.addr b.Testbed.host) ~dst_port:80
  in
  check Alcotest.int "post-publication connection agrees" expected_mss
    (Minitcp.mss c_after);
  (* The old connection's segments are now sized under the FBS growth:
     bulk data flows through the armored path without DF drops. *)
  let payload = String.init 40_000 (fun i -> Char.chr ((i * 11) land 0xff)) in
  Minitcp.send c_before payload;
  Minitcp.close c_before;
  Minitcp.on_established c_after (fun () -> Minitcp.close c_after);
  Testbed.run ~until:120.0 tb;
  check Alcotest.string "bulk intact across the re-armored path" payload
    (Buffer.contents received);
  check Alcotest.int "no send errors" 0
    (Host.stats a.Testbed.host).Host.send_errors

let test_stack_uninstall () =
  let tb, a, b = make_pair () in
  Stack.uninstall a.Testbed.stack;
  Stack.uninstall b.Testbed.stack;
  let got = ref "" in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "plain again";
  Testbed.run tb;
  check Alcotest.string "plain traffic after uninstall" "plain again" !got;
  check Alcotest.int "mss reduction cleared" 0 (Minitcp.mss_reduction a.Testbed.host)

let test_peek_ports () =
  let payload = "\x12\x34\x56\x78rest" in
  check
    Alcotest.(pair int int)
    "tcp ports" (0x1234, 0x5678)
    (Stack.peek_ports ~protocol:Ipv4.proto_tcp payload);
  check
    Alcotest.(pair int int)
    "unknown proto" (0, 0)
    (Stack.peek_ports ~protocol:47 payload);
  check
    Alcotest.(pair int int)
    "short payload" (0, 0)
    (Stack.peek_ports ~protocol:Ipv4.proto_udp "ab")

(* --- Output bursts ---

   A burst's secret seals pair up in the stack's one-slot batch, and
   each datagram transmits when its seal completes; these pin that the
   wire cannot tell.  The bug class is the parked-forever datagram: a
   seal that parks where no flush will ever come. *)

(* What one site observed: the medium's frames in order, with their
   times; the receiver's deliveries; the integer counters; and every
   span's stage and outcome, order-free. *)
let burst_site_run ~burst =
  let tb = Testbed.create ~seed:11 ~faults:Fbsr_experiments.Faults.hostile ~span_capacity:8192 () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let frames = ref [] and got = ref [] in
  Medium.add_sniffer (Testbed.medium tb) (fun at raw -> frames := (at, raw) :: !frames);
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port d -> got := (src_port, d) :: !got);
  (* Ten rounds of six datagrams on three flows, 1-1400 bytes, some to the
     key server (bypassed); the first round's flows are cold. *)
  for round = 0 to 9 do
    Engine.schedule (Testbed.engine tb) ~delay:(0.5 *. float_of_int round) (fun () ->
        let send () =
          for i = 0 to 5 do
            let dst =
              if i = 4 then Testbed.ca_addr tb else Host.addr b.Testbed.host
            in
            Udp_stack.send a.Testbed.host ~src_port:(100 + (i mod 3)) ~dst ~dst_port:7
              (Printf.sprintf "round %d datagram %d " round i
              ^ String.make ((round * 131) + (i * 200)) 'p')
          done
        in
        if burst then Host.burst a.Testbed.host send else send ())
  done;
  Testbed.run ~until:60.0 tb;
  let counters =
    List.filter_map
      (function n, Fbsr_util.Metrics.Int v -> Some (n, v) | _ -> None)
      (Fbsr_util.Metrics.snapshot (Testbed.metrics tb))
  in
  let terminals =
    List.sort compare
      (List.map
         (fun (s : Fbsr_util.Span.span) -> (s.Fbsr_util.Span.stage, s.Fbsr_util.Span.outcome))
         (Testbed.collect_spans tb))
  in
  (List.rev !frames, List.rev !got, counters, terminals)

let test_burst_matches_one_at_a_time () =
  let frames1, got1, counters1, spans1 = burst_site_run ~burst:false in
  let frames, got, counters, spans = burst_site_run ~burst:true in
  check Alcotest.bool "the run carried traffic" true (List.length got1 > 20);
  check
    Alcotest.(list (pair (float 0.) string))
    "medium frames, in order, with their times" frames1 frames;
  check Alcotest.(list (pair int string)) "deliveries" got1 got;
  check Alcotest.(list (pair string int)) "counters" counters1 counters;
  check Alcotest.(list (pair string string)) "span terminals" spans1 spans

(* Random bursts against the same datagrams sent one at a time: each
   datagram transmits when its seal completes, so the two must match
   frame for frame.  A datagram is sealed (secret or not, by port under
   [secret_policy]) on a warm peer, bypassed to the key server, sent to
   one of two cold peers (it suspends on the MKD fetch), or too big with
   DF set.  A too-big datagram to the warm peer raises [Send_error] out of
   the burst, or out of its [ip_output]; one to a peer still cold resumes
   after the key fetch and is dropped there, counted in the host's
   [send_errors] but raising nothing. *)
type burst_dgram =
  | Sealed of { flow : int; secret : bool; size : int }
  | To_key_server
  | Cold of int
  | Too_big of { secret : bool; peer : int option } (* [Some p]: cold peer p *)

let gen_bursts =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (list_size (int_range 1 8)
         (frequency
            [
              ( 6,
                map3
                  (fun flow secret size -> Sealed { flow; secret; size })
                  (int_bound 3) bool (int_bound 1400) );
              (1, return To_key_server);
              (1, map (fun p -> Cold p) (int_bound 1));
              ( 1,
                map2
                  (fun secret peer -> Too_big { secret; peer })
                  bool
                  (opt ~ratio:0.5 (int_bound 1)) );
            ])))

let print_bursts bursts =
  String.concat " | "
    (List.map
       (fun ds ->
         String.concat " "
           (List.map
              (function
                | Sealed { flow; secret; size } ->
                    Printf.sprintf "%s%d/%d" (if secret then "S" else "n") flow size
                | To_key_server -> "K"
                | Cold p -> Printf.sprintf "C%d" p
                | Too_big { secret; peer } ->
                    (if secret then "BIG" else "big")
                    ^ Option.fold ~none:"" ~some:(Printf.sprintf "@C%d") peer)
              ds))
       bursts)

(* The source port encodes secrecy: even ports are secret. *)
let burst_port ~flow ~secret = 100 + (2 * flow) + if secret then 0 else 1

let random_burst_run ~burst bursts =
  let config =
    Stack.default_config
      ~secret_policy:(fun ~protocol:_ ~src_port ~dst_port:_ -> src_port land 1 = 0)
      ()
  in
  let tb = Testbed.create ~seed:7 ~config ~span_capacity:8192 () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let peers =
    List.map
      (fun (name, addr) -> (Testbed.add_host tb ~name ~addr).Testbed.host)
      [ ("b", "10.0.0.2"); ("c", "10.0.0.3"); ("d", "10.0.0.4") ]
  in
  let frames = ref [] and got = ref [] in
  Medium.add_sniffer (Testbed.medium tb) (fun at raw -> frames := (at, raw) :: !frames);
  List.iter
    (fun h ->
      Udp_stack.listen h ~port:7 (fun ~src:_ ~src_port d ->
          got := (Host.name h, src_port, d) :: !got))
    peers;
  let bh = Host.addr (List.nth peers 0) in
  let send i j = function
    | Sealed { flow; secret; size } ->
        Udp_stack.send a.Testbed.host ~src_port:(burst_port ~flow ~secret) ~dst:bh
          ~dst_port:7
          (Printf.sprintf "%d.%d " i j ^ String.make size 'p')
    | To_key_server ->
        Udp_stack.send a.Testbed.host ~src_port:9 ~dst:(Testbed.ca_addr tb) ~dst_port:9
          (Printf.sprintf "%d.%d to the key server" i j)
    | Cold p ->
        Udp_stack.send a.Testbed.host ~src_port:100
          ~dst:(Host.addr (List.nth peers (1 + p)))
          ~dst_port:7 (Printf.sprintf "%d.%d cold" i j)
    | Too_big { secret; peer } ->
        let port = Char.chr (burst_port ~flow:0 ~secret) in
        let dst =
          match peer with None -> bh | Some p -> Host.addr (List.nth peers (1 + p))
        in
        Host.ip_output a.Testbed.host ~dont_fragment:true ~protocol:Ipv4.proto_udp ~dst
          (Printf.sprintf "\000%c\000\007" port ^ String.make 1600 'x')
  in
  (* [Send_error]s that escaped, per scheduled burst. *)
  let errors = Array.make (List.length bursts) 0 in
  let escape i f = try f () with Host.Send_error _ -> errors.(i) <- errors.(i) + 1 in
  (* Warm the peer b first, so that only the cold peers suspend. *)
  Udp_stack.send a.Testbed.host ~src_port:99 ~dst:bh ~dst_port:7 "warm";
  List.iteri
    (fun i ds ->
      Engine.schedule (Testbed.engine tb) ~delay:(1.0 +. (0.5 *. float_of_int i))
        (fun () ->
          if burst then
            escape i (fun () ->
                Host.burst a.Testbed.host (fun () -> List.iteri (send i) ds))
          else List.iteri (fun j d -> escape i (fun () -> send i j d)) ds))
    bursts;
  Testbed.run ~until:30.0 tb;
  let counters =
    List.filter_map
      (function n, Fbsr_util.Metrics.Int v -> Some (n, v) | _ -> None)
      (Fbsr_util.Metrics.snapshot (Testbed.metrics tb))
  in
  let terminals =
    List.sort compare
      (List.map
         (fun (s : Fbsr_util.Span.span) -> (s.Fbsr_util.Span.stage, s.Fbsr_util.Span.outcome))
         (Testbed.collect_spans tb))
  in
  ( List.rev !frames,
    List.rev !got,
    counters,
    terminals,
    (Array.to_list errors, (Host.stats a.Testbed.host).Host.send_errors) )

let prop_random_bursts =
  QCheck.Test.make ~count:25 ~name:"random bursts = one at a time"
    (QCheck.make ~print:print_bursts gen_bursts)
    (fun bursts ->
      let frames1, got1, counters1, spans1, errors1 = random_burst_run ~burst:false bursts in
      let frames, got, counters, spans, errors = random_burst_run ~burst:true bursts in
      let fail = QCheck.Test.fail_reportf in
      if frames <> frames1 then fail "medium frames or their times differ";
      if got <> got1 then fail "deliveries differ";
      if counters <> counters1 then
        fail "counters differ: %s"
          (String.concat ", "
             (List.filter_map
                (fun (n, v) ->
                  match List.assoc_opt n counters1 with
                  | Some v1 when v1 = v -> None
                  | v1 ->
                      Some
                        (Printf.sprintf "%s %s -> %d" n
                           (Option.fold ~none:"-" ~some:string_of_int v1)
                           v))
                counters));
      if spans <> spans1 then fail "span terminals differ";
      (* The host counts every too-big datagram, on time or resumed.  One
         at a time, each on-time one raises (a warm peer's always; a cold
         peer's once an earlier fetch warmed it); a burst raises only its
         first, and only if one at a time some datagram of it raised. *)
      let (raised1, send_errors1), (raised, send_errors) = (errors1, errors) in
      let too_big =
        List.fold_left
          (fun n ds ->
            n + List.length (List.filter (function Too_big _ -> true | _ -> false) ds))
          0 bursts
      in
      let warm_too_big =
        List.fold_left
          (fun n ds ->
            n
            + List.length
                (List.filter (function Too_big { peer = None; _ } -> true | _ -> false) ds))
          0 bursts
      in
      let sum = List.fold_left ( + ) 0 in
      (send_errors1 = too_big && send_errors = too_big
      || fail "host send_errors: %d one at a time, %d in bursts, %d too big" send_errors1
           send_errors too_big)
      && (sum raised1 >= warm_too_big && sum raised1 <= too_big
         || fail "%d raised one at a time, %d too big (%d to the warm peer)" (sum raised1)
              too_big warm_too_big)
      && (raised = List.map (fun n -> min n 1) raised1
         || fail "Send_error per burst: %s one at a time, %s in bursts"
              (String.concat "," (List.map string_of_int raised1))
              (String.concat "," (List.map string_of_int raised))))

(* The frames from [src] to [dst] the medium carries from now on, with
   their times, newest first. *)
let frames_between tb src dst =
  let seen = ref [] in
  Medium.add_sniffer (Testbed.medium tb) (fun at raw ->
      match Ipv4.decode raw with
      | h, payload when Addr.equal h.Ipv4.src src && Addr.equal h.Ipv4.dst dst ->
          seen := (at, payload) :: !seen
      | _ -> ()
      | exception Ipv4.Bad_packet _ -> ());
  seen

(* Paper Section 5.3: a stack torn down and installed again must not
   replay its predecessor's sfls.  Same sfl, same K_f; the engine's
   fixed confounder seed then repeats the IV too, and two DES-CBC bodies
   whose plaintexts share a first block share their first ciphertext
   block. *)
let test_reinstalled_stack_fresh_sfl () =
  let config = Stack.default_config () in
  let tb, a, b = make_pair ~config () in
  let config =
    { config with Stack.bypass = (fun ad -> Addr.equal ad (Testbed.ca_addr tb)) }
  in
  let bh = Host.addr b.Testbed.host in
  let data = frames_between tb (Host.addr a.Testbed.host) bh in
  (* Raw IP payloads, so the FBS plaintext is exactly these bytes; the
     first four read as ports 7 -> 7, and the first eight, a DES block,
     are the same in both. *)
  let p1 = "\000\007\000\007DAWN, the first datagram" in
  let p2 = "\000\007\000\007DAWN, the other datagram" in
  let send_first p =
    Host.ip_output a.Testbed.host ~protocol:Ipv4.proto_udp ~dst:bh p;
    Testbed.run tb;
    match !data with
    | (_, wire) :: _ -> (
        match Fbsr_fbs.Header.decode wire with
        | Ok hb -> hb
        | Error _ -> Alcotest.fail "undecodable FBS header")
    | [] -> Alcotest.fail "nothing on the wire"
  in
  let h1, body1 = send_first p1 in
  List.iter
    (fun (n : Testbed.node) ->
      Stack.uninstall n.Testbed.stack;
      ignore
        (Stack.install ~config ~private_value:n.Testbed.private_value
           ~group:(Testbed.group tb)
           ~ca_public:(Fbsr_cert.Authority.public (Testbed.authority tb))
           ~ca_hash:(Fbsr_cert.Authority.hash (Testbed.authority tb))
           ~resolver:(Mkd.resolver n.Testbed.mkd) n.Testbed.host
          : Stack.t))
    [ a; b ];
  let h2, body2 = send_first p2 in
  check Alcotest.bool "the re-installed stack's first sfl differs" false
    (Fbsr_fbs.Sfl.equal h1.Fbsr_fbs.Header.sfl h2.Fbsr_fbs.Header.sfl);
  check Alcotest.int "equal lengths" (String.length body1) (String.length body2);
  check Alcotest.bool "no repeated key and IV: the first cipher blocks differ" false
    (String.equal (String.sub body1 0 8) (String.sub body2 0 8))

let test_burst_cold_flow_transmits_on_resume () =
  let tb, a, b = make_pair () in
  let got = ref [] in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  let data = frames_between tb (Host.addr a.Testbed.host) (Host.addr b.Testbed.host) in
  (* The burst's only datagram suspends on the master-key fetch: no later
     burst will ever come to flush the seal lane for it. *)
  Host.burst a.Testbed.host (fun () ->
      Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
        "cold flow, lone datagram");
  check Alcotest.int "nothing on the wire at burst end" 0 (List.length !data);
  let sc = Stack.counters a.Testbed.stack in
  check Alcotest.int "suspended" 1 sc.Stack.suspended_out;
  Testbed.run tb;
  check Alcotest.(list string) "delivered" [ "cold flow, lone datagram" ] !got;
  check Alcotest.int "resumed" 1 sc.Stack.resumed;
  check Alcotest.int "sent" 1 sc.Stack.sent;
  match !data with
  | [ (at, _) ] -> check Alcotest.bool "transmitted from the resumed event" true (at > 0.0)
  | l -> Alcotest.failf "%d data frames, want 1" (List.length l)

let test_burst_bypass_keeps_position () =
  let tb, a, b = make_pair () in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7 "warm";
  Testbed.run tb;
  let order = ref [] in
  Medium.add_sniffer (Testbed.medium tb) (fun _ raw ->
      match Ipv4.decode raw with
      | h, _ when Addr.equal h.Ipv4.src (Host.addr a.Testbed.host) ->
          order := h.Ipv4.dst :: !order
      | _ -> ()
      | exception Ipv4.Bad_packet _ -> ());
  let ca = Testbed.ca_addr tb and bh = Host.addr b.Testbed.host in
  let sc = Stack.counters a.Testbed.stack in
  let bypassed0 = sc.Stack.bypassed in
  Host.burst a.Testbed.host (fun () ->
      Udp_stack.send a.Testbed.host ~src_port:7 ~dst:bh ~dst_port:7 "sealed, first";
      Udp_stack.send a.Testbed.host ~src_port:9 ~dst:ca ~dst_port:9 "to the key server";
      check
        Alcotest.(list string)
        "the parked seal went out before the bypassed datagram"
        [ Addr.to_string bh; Addr.to_string ca ]
        (List.rev_map Addr.to_string !order);
      Udp_stack.send a.Testbed.host ~src_port:7 ~dst:bh ~dst_port:7 "sealed, last");
  check
    Alcotest.(list string)
    "wire order is call order"
    [ Addr.to_string bh; Addr.to_string ca; Addr.to_string bh ]
    (List.rev_map Addr.to_string !order);
  check Alcotest.int "one bypassed" 1 (sc.Stack.bypassed - bypassed0)

let test_burst_df_too_big_escapes () =
  let tb, a, b = make_pair () in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7 "warm";
  Testbed.run tb;
  let big = String.make 1600 'x' and bh = Host.addr b.Testbed.host in
  let too_big f =
    match f () with
    | () -> Alcotest.fail "no Send_error"
    | exception Host.Send_error _ -> ()
  in
  too_big (fun () -> Host.ip_output a.Testbed.host ~dont_fragment:true ~protocol:17 ~dst:bh big);
  (* Inside a burst it escapes the burst, after the rest went out. *)
  let data = frames_between tb (Host.addr a.Testbed.host) bh in
  too_big (fun () ->
      Host.burst a.Testbed.host (fun () ->
          Host.ip_output a.Testbed.host ~dont_fragment:true ~protocol:17 ~dst:bh big;
          Udp_stack.send a.Testbed.host ~src_port:7 ~dst:bh ~dst_port:7 "behind it"));
  check Alcotest.int "the datagram behind it went out" 1 (List.length !data);
  check Alcotest.int "two send errors" 2 (Host.stats a.Testbed.host).Host.send_errors

(* A too-big datagram with DF set to a cold peer suspends on the key
   fetch and resumes from the MKD reply's event: its [Send_error] has no
   caller there, so the host drops it and counts it, and the
   simulation goes on. *)
let test_resumed_df_too_big_dropped () =
  let tb, a, b = make_pair () in
  let got = ref [] in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  let bh = Host.addr b.Testbed.host in
  Host.ip_output a.Testbed.host ~dont_fragment:true ~protocol:Ipv4.proto_udp ~dst:bh
    (String.make 1600 'x');
  Engine.schedule (Testbed.engine tb) ~delay:1.0 (fun () ->
      Udp_stack.send a.Testbed.host ~src_port:7 ~dst:bh ~dst_port:7 "later");
  Testbed.run tb;
  check Alcotest.(list string) "the later datagram is delivered" [ "later" ] !got;
  (* Both were sealed and handed to IP; the host's [send_errors] is
     where the refused one is counted, and only there. *)
  check Alcotest.int "both sent" 2 (Stack.counters a.Testbed.stack).Stack.sent;
  check Alcotest.int "one send error" 1 (Host.stats a.Testbed.host).Host.send_errors;
  check Alcotest.int "it resumed" 1 (Stack.counters a.Testbed.stack).Stack.resumed

(* --- The shared send completion on a cold flow --- *)

let test_cold_flow_completion_counters () =
  (* A cold flow parks its first datagram across the MKD fetch and
     resumes it; the rest hit the TFKC entry the fetch installed. *)
  let n = 6 in
  let tb, a, b = make_pair () in
  let got = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  let send () =
    Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host)
      ~dst_port:7 "cold"
  in
  send ();
  Engine.schedule (Testbed.engine tb) ~delay:1.0 (fun () ->
      for _ = 2 to n do
        send ()
      done);
  Testbed.run tb;
  let c = Stack.counters a.Testbed.stack in
  check Alcotest.int "one datagram parked" 1 c.Stack.suspended_out;
  check Alcotest.int "one datagram resumed" 1 c.Stack.resumed;
  check Alcotest.int "every datagram sent" n c.Stack.sent;
  check Alcotest.int "no send errors" 0 c.Stack.dropped_error;
  check Alcotest.int "every datagram delivered" n !got

(* A cold datagram waits for the MKD on both hosts and is delivered: no
   host counts it a hook drop.  One whose key fetch fails is one hook
   drop on its sender. *)
let test_cold_flow_waiting_is_no_drop () =
  let tb, a, b = make_pair () in
  let drops (n : Testbed.node) = (Host.stats n.Testbed.host).Host.drops_hook in
  let got = ref [] in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "cold";
  Testbed.run tb;
  check Alcotest.(list string) "delivered" [ "cold" ] !got;
  check Alcotest.int "it waited on the sender" 1
    (Stack.counters a.Testbed.stack).Stack.suspended_out;
  check Alcotest.int "and on the receiver" 1
    (Stack.counters b.Testbed.stack).Stack.suspended_in;
  check Alcotest.int "no hook drop on the sender" 0 (drops a);
  check Alcotest.int "no hook drop on the receiver" 0 (drops b);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Addr.of_string "10.0.0.77") ~dst_port:7
    "doomed";
  Testbed.run tb;
  check Alcotest.int "a failed fetch is one hook drop" 1 (drops a)

let test_cold_flow_resolver_failure () =
  (* A failed certificate fetch on a cold flow's TFKC miss is counted in
     [dropped_error] and nothing reaches the peer — whether the resolver
     fails inline or after a simulated round trip.  Either way the engine
     counts the datagram as a send and records exactly one terminal span
     for it: ["engine.send"] with outcome ["drop:keying"]. *)
  let run ~late =
    let tb, a, b = make_pair () in
    Stack.uninstall a.Testbed.stack;
    let resolver _ k =
      if late then
        Engine.schedule (Testbed.engine tb) ~delay:0.5 (fun () ->
            k (Error "unreachable"))
      else k (Error "unreachable")
    in
    let config =
      Stack.default_config ~bypass:(fun ad -> Addr.equal ad (Testbed.ca_addr tb)) ()
    in
    let spans = Fbsr_util.Span.create ~capacity:256 () in
    let stack =
      Stack.install ~config ~spans ~private_value:a.Testbed.private_value
        ~group:(Testbed.group tb)
        ~ca_public:(Fbsr_cert.Authority.public (Testbed.authority tb))
        ~ca_hash:(Fbsr_cert.Authority.hash (Testbed.authority tb))
        ~resolver a.Testbed.host
    in
    let got = ref 0 in
    Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
    Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host)
      ~dst_port:7 "doomed";
    Testbed.run tb;
    let terminals =
      List.filter_map
        (fun sp ->
          if sp.Fbsr_util.Span.stage = "engine.send" then Some sp.Fbsr_util.Span.outcome
          else None)
        (Fbsr_util.Span.spans spans)
    in
    (Stack.counters stack, (Fbsr_fbs.Engine.counters (Stack.engine stack)).sends, terminals, !got)
  in
  let c, sends, terminals, got = run ~late:false in
  check Alcotest.int "sync: error counted" 1 c.Stack.dropped_error;
  check Alcotest.int "sync: not parked" 0 c.Stack.suspended_out;
  check Alcotest.int "sync: nothing sent" 0 c.Stack.sent;
  check Alcotest.int "sync: nothing delivered" 0 got;
  check Alcotest.int "sync: engine counted the send" 1 sends;
  check Alcotest.(list string) "sync: one drop:keying terminal" [ "drop:keying" ] terminals;
  let c, sends, terminals, got = run ~late:true in
  check Alcotest.int "late: error counted" 1 c.Stack.dropped_error;
  check Alcotest.int "late: parked" 1 c.Stack.suspended_out;
  check Alcotest.int "late: not resumed" 0 c.Stack.resumed;
  check Alcotest.int "late: nothing sent" 0 c.Stack.sent;
  check Alcotest.int "late: nothing delivered" 0 got;
  check Alcotest.int "late: engine counted the send" 1 sends;
  check Alcotest.(list string) "late: one drop:keying terminal" [ "drop:keying" ] terminals

(* --- Raw IP through FBS: host-level flows (footnote 10) --- *)

(* An experimental protocol number (RFC 3692) carries no ports, so every
   datagram to one destination maps to a single host-level flow.  Its
   handler answers a request ('Q' first) with a reply ('R' first). *)
let proto_raw = 253

let test_raw_ip_through_fbs () =
  let tb, a, b = make_pair () in
  let echoed = ref 0 and replies = ref 0 in
  let handle host (h : Ipv4.header) payload =
    if payload.[0] = 'Q' then begin
      incr echoed;
      Host.ip_output host ~protocol:proto_raw ~dst:h.Ipv4.src
        ("R" ^ String.sub payload 1 (String.length payload - 1))
    end
    else incr replies
  in
  Host.register_protocol a.Testbed.host ~protocol:proto_raw handle;
  Host.register_protocol b.Testbed.host ~protocol:proto_raw handle;
  for i = 1 to 5 do
    Host.ip_output a.Testbed.host ~protocol:proto_raw ~dst:(Host.addr b.Testbed.host)
      (Printf.sprintf "Q%d" i)
  done;
  Testbed.run tb;
  check Alcotest.int "all requests answered through FBS" 5 !replies;
  check Alcotest.int "b echoed" 5 !echoed;
  let fam_stats =
    Fbsr_fbs.Fam.stats (Fbsr_fbs.Engine.fam (Stack.engine a.Testbed.stack))
  in
  check Alcotest.int "one flow for all requests" 1 fam_stats.Fbsr_fbs.Fam.flows_started

(* --- The Section 7.1 port-reuse attack --- *)

let test_port_reuse_attack () =
  (* An attacker records a flow's datagrams, then grabs the destination
     port right after the victim releases it (within THRESHOLD) and
     replays: FBS happily decrypts for the attacker.  The paper's proposed
     fix is to delay port reallocation, making the replay stale. *)
  let replay_window_minutes = 30 in
  let config = Stack.default_config ~threshold:600.0 ~replay_window_minutes () in
  let tb = Testbed.create ~config () in
  let alice = Testbed.add_host tb ~name:"alice" ~addr:"10.0.0.1" in
  let bob = Testbed.add_host tb ~name:"bob" ~addr:"10.0.0.2" in
  let tap = Fbsr_baselines.Attacks.tap (Testbed.medium tb) in
  let victim_got = ref 0 in
  Udp_stack.listen bob.Testbed.host ~port:7777 (fun ~src:_ ~src_port:_ _ ->
      incr victim_got);
  Udp_stack.send alice.Testbed.host ~src_port:5000 ~dst:(Host.addr bob.Testbed.host)
    ~dst_port:7777 "for the victim only";
  Testbed.run tb;
  check Alcotest.int "victim got it" 1 !victim_got;
  (* Victim exits; attacker grabs the port immediately (within THRESHOLD). *)
  Udp_stack.unlisten bob.Testbed.host ~port:7777;
  let attacker_got = ref [] in
  Udp_stack.listen bob.Testbed.host ~port:7777 (fun ~src:_ ~src_port:_ d ->
      attacker_got := d :: !attacker_got);
  let frames =
    Fbsr_baselines.Attacks.between tap ~src:(Host.addr alice.Testbed.host)
      ~dst:(Host.addr bob.Testbed.host)
  in
  let _, captured = List.hd frames in
  Fbsr_baselines.Attacks.replay (Testbed.medium tb) captured;
  Testbed.run tb;
  check
    Alcotest.(list string)
    "attack succeeds within THRESHOLD" [ "for the victim only" ] !attacker_got;
  (* The fix: delay port reallocation; by then the replay is stale. *)
  attacker_got := [];
  Engine.schedule (Testbed.engine tb)
    ~delay:(float_of_int (replay_window_minutes * 60) +. 700.0)
    (fun () -> Fbsr_baselines.Attacks.replay (Testbed.medium tb) captured);
  Testbed.run tb;
  check
    Alcotest.(list string)
    "delayed reallocation defeats the replay" [] !attacker_got

(* --- Key-server outage and recovery --- *)

let test_ca_outage_recovery () =
  (* The key server is unreachable at first contact: the parked datagram
     is eventually dropped when the MKD exhausts its retries.  When the
     network heals, traffic flows (and only pays the fetch once). *)
  let tb = Testbed.create ~faults:Link.perfect () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let set_drop p =
    List.iter
      (fun l -> Link.set_profile l { Link.perfect with Link.drop = p })
      (Testbed.links tb)
  in
  let got = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  set_drop 1.0;
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "lost to the outage";
  Testbed.run ~until:30.0 tb;
  check Alcotest.int "nothing through during outage" 0 !got;
  check Alcotest.bool "fetch failed after retries" true
    ((Mkd.stats a.Testbed.mkd).Mkd.failures >= 1);
  check Alcotest.int "datagram dropped, not wedged" 1
    (Stack.counters a.Testbed.stack).Stack.dropped_error;
  (* Network heals. *)
  set_drop 0.0;
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "after recovery";
  Testbed.run tb;
  check Alcotest.int "delivered after recovery" 1 !got

(* --- The standalone sweeper (Figure 7) --- *)

let test_stack_sweeper () =
  let tb, a, b = make_pair () in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "start a flow";
  (* Well past THRESHOLD (600 s), one sweep of the stack's FST expires the
     idle flow even though no further packet probed it. *)
  Testbed.run ~until:700.0 tb;
  let st = Stack.policy_state a.Testbed.stack in
  check Alcotest.int "one flow swept" 1
    (Fbsr_fbs.Policy_five_tuple.sweep st ~now:700.0);
  check Alcotest.int "flow swept" 0 (Fbsr_fbs.Policy_five_tuple.active st ~now:700.0);
  check Alcotest.bool "sweeper did the expiry" true
    ((Fbsr_fbs.Policy_five_tuple.counters st).Fbsr_fbs.Policy_five_tuple.expirations >= 1)

(* --- FBS across a forwarding router (the transparency claim) --- *)

let test_fbs_across_router () =
  (* "A forwarding router also will not see anything 'strange' about FBS
     processed IP packets": two FBS hosts on different segments, a plain
     IP router between them, a key server on segment A that b reaches
     through it — everything still verifies, even with the router
     re-fragmenting onto a smaller-MTU segment. *)
  let eng = Engine.create () in
  let seg_a = Medium.create eng in
  let seg_b = Medium.create eng in
  let router = Router.create ~name:"r" () in
  ignore (Router.attach router ~addr:(Addr.of_string "10.0.1.1") ~prefix:24 seg_a);
  ignore
    (Router.attach router ~addr:(Addr.of_string "10.0.2.1") ~prefix:24 ~mtu:576 seg_b);
  (* Build the FBS machinery by hand on the two segments. *)
  let rng = Fbsr_util.Rng.create 88 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let authority = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let ca_host = Host.create ~name:"ca" ~addr:(Addr.of_string "10.0.1.100") eng in
  Host.attach ca_host seg_a;
  Host.set_gateway ca_host ~prefix:24 ~gateway:(Addr.of_string "10.0.1.1");
  Udp_stack.install ca_host;
  let ca_server = Ca_server.install ~authority ca_host in
  let make_node ~name ~addr ~gw segment =
    let host = Host.create ~name ~addr:(Addr.of_string addr) eng in
    Host.attach host segment;
    Host.set_gateway host ~prefix:24 ~gateway:(Addr.of_string gw);
    Udp_stack.install host;
    Minitcp.install host;
    let private_value = Fbsr_crypto.Dh.gen_private group rng in
    let public = Fbsr_crypto.Dh.public group private_value in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll authority ~now:0.0 ~subject:addr
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group public)
    in
    let mkd =
      Mkd.create ~ca_addr:(Host.addr ca_host) ~ca_port:(Ca_server.port ca_server) host
    in
    let config =
      Stack.default_config ~bypass:(fun a -> Addr.equal a (Host.addr ca_host)) ()
    in
    let stack =
      Stack.install ~config ~private_value ~group
        ~ca_public:(Fbsr_cert.Authority.public authority)
        ~ca_hash:(Fbsr_cert.Authority.hash authority)
        ~resolver:(Mkd.resolver mkd) host
    in
    (host, stack)
  in
  let a, _ = make_node ~name:"a" ~addr:"10.0.1.10" ~gw:"10.0.1.1" seg_a in
  let b, stack_b = make_node ~name:"b" ~addr:"10.0.2.10" ~gw:"10.0.2.1" seg_b in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  (* Small datagram plus one large enough that the router must fragment it
     onto the 576-byte segment. *)
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "short one";
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 (String.make 1200 'R');
  Engine.run eng;
  check Alcotest.int "both delivered through the router" 2 (List.length !got);
  check Alcotest.bool "router re-fragmented FBS traffic" true
    ((Router.stats router).Router.fragmented > 0);
  check Alcotest.int "no verification errors" 0
    (Fbsr_fbs.Engine.drop_count
       (Fbsr_fbs.Engine.counters (Stack.engine stack_b))
       Fbsr_fbs.Engine.Mac)

(* --- Clock skew end-to-end (loose time synchronization) --- *)

let test_clock_skew_end_to_end () =
  (* Receiver's clock runs 60 s behind: inside the +-2 min window, traffic
     flows.  10 minutes behind: every datagram is "from the future" and is
     rejected as stale. *)
  let run_with_skew skew =
    let tb, a, b = make_pair () in
    Host.set_clock_offset b.Testbed.host skew;
    let got = ref 0 in
    Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
    (* Move simulated time away from 0 so negative skews stay positive. *)
    Engine.schedule (Testbed.engine tb) ~delay:1200.0 (fun () ->
        Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host)
          ~dst_port:7 "tick");
    Testbed.run tb;
    !got
  in
  check Alcotest.int "60s skew tolerated" 1 (run_with_skew (-60.0));
  check Alcotest.int "600s skew rejected" 0 (run_with_skew (-600.0))

(* --- Gateway-to-gateway FBS (Section 7.1 host/gateway granularity) --- *)

let test_gateway_tunnel () =
  (* Two sites whose hosts run NO security at all; the site gateways
     tunnel inter-site traffic through FBS.  Plaintext is visible on the
     trusted site segments, never on the backbone. *)
  let eng = Engine.create () in
  let site_a = Medium.create eng in
  let site_b = Medium.create eng in
  let backbone = Medium.create eng in
  (* Key infrastructure on the backbone. *)
  let rng = Fbsr_util.Rng.create 90 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let authority = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let ca_host = Host.create ~name:"ca" ~addr:(Addr.of_string "10.0.0.100") eng in
  Host.attach ca_host backbone;
  Udp_stack.install ca_host;
  let ca_server = Ca_server.install ~authority ca_host in
  let make_outer ~addr =
    let host = Host.create ~name:("gw-" ^ addr) ~addr:(Addr.of_string addr) eng in
    Host.attach host backbone;
    Udp_stack.install host;
    let private_value = Fbsr_crypto.Dh.gen_private group rng in
    let public = Fbsr_crypto.Dh.public group private_value in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll authority ~now:0.0 ~subject:addr
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group public)
    in
    let mkd =
      Mkd.create ~ca_addr:(Host.addr ca_host) ~ca_port:(Ca_server.port ca_server) host
    in
    let config =
      Stack.default_config ~bypass:(fun a -> Addr.equal a (Host.addr ca_host)) ()
    in
    let (_ : Stack.t) =
      Stack.install ~config ~private_value ~group
        ~ca_public:(Fbsr_cert.Authority.public authority)
        ~ca_hash:(Fbsr_cert.Authority.hash authority)
        ~resolver:(Mkd.resolver mkd) host
    in
    host
  in
  let gw_a_outer = make_outer ~addr:"10.0.0.1" in
  let gw_b_outer = make_outer ~addr:"10.0.0.2" in
  let gw_a =
    Gateway.create ~inside:site_a ~inside_addr:(Addr.of_string "10.1.0.1")
      ~outer:gw_a_outer ()
  in
  let gw_b =
    Gateway.create ~inside:site_b ~inside_addr:(Addr.of_string "10.2.0.1")
      ~outer:gw_b_outer ()
  in
  Gateway.add_peer gw_a ~network:(Addr.of_string "10.2.0.0") ~prefix:24
    ~gateway:(Host.addr gw_b_outer);
  Gateway.add_peer gw_b ~network:(Addr.of_string "10.1.0.0") ~prefix:24
    ~gateway:(Host.addr gw_a_outer);
  (* Plain hosts on each site. *)
  let a1 = Host.create ~name:"a1" ~addr:(Addr.of_string "10.1.0.10") eng in
  Host.attach a1 site_a;
  Host.set_gateway a1 ~prefix:24 ~gateway:(Addr.of_string "10.1.0.1");
  Udp_stack.install a1;
  let b1 = Host.create ~name:"b1" ~addr:(Addr.of_string "10.2.0.10") eng in
  Host.attach b1 site_b;
  Host.set_gateway b1 ~prefix:24 ~gateway:(Addr.of_string "10.2.0.1");
  Udp_stack.install b1;
  (* Observe both the backbone and a site segment. *)
  let backbone_leak = ref false and site_saw_plain = ref false in
  Medium.add_sniffer backbone (fun _ raw ->
      if contains raw "TUNNEL-SECRET" then backbone_leak := true);
  Medium.add_sniffer site_b (fun _ raw ->
      if contains raw "TUNNEL-SECRET" then site_saw_plain := true);
  let got = ref [] in
  Udp_stack.listen b1 ~port:7 (fun ~src ~src_port:_ d ->
      got := (Addr.to_string src, d) :: !got);
  Udp_stack.send a1 ~src_port:7 ~dst:(Host.addr b1) ~dst_port:7
    "TUNNEL-SECRET payload one";
  Udp_stack.send a1 ~src_port:7 ~dst:(Host.addr b1) ~dst_port:7
    "TUNNEL-SECRET payload two";
  Engine.run eng;
  check Alcotest.int "delivered across sites" 2 (List.length !got);
  (* End-to-end transparency: b1 sees a1's real address as the source. *)
  List.iter
    (fun (src, _) -> check Alcotest.string "inner source preserved" "10.1.0.10" src)
    !got;
  check Alcotest.bool "backbone never sees plaintext" false !backbone_leak;
  check Alcotest.bool "site segment is plaintext (trusted zone)" true !site_saw_plain;
  check Alcotest.int "gw_a encapsulated" 2 (Gateway.counters gw_a).Gateway.encapsulated;
  check Alcotest.int "gw_b decapsulated" 2 (Gateway.counters gw_b).Gateway.decapsulated;
  check Alcotest.int "no routing failures" 0 (Gateway.counters gw_a).Gateway.no_route;
  (* A near-MTU inner datagram: outer = inner + IP + FBS overhead exceeds
     the backbone MTU, so the tunnel datagram fragments and reassembles
     transparently. *)
  let big = ref "" in
  Udp_stack.listen b1 ~port:8 (fun ~src:_ ~src_port:_ d -> big := d);
  let payload = String.init 1450 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Udp_stack.send a1 ~src_port:8 ~dst:(Host.addr b1) ~dst_port:8 payload;
  Engine.run eng;
  check Alcotest.string "near-MTU datagram through the tunnel" payload !big;
  check Alcotest.bool "outer fragmented" true
    ((Host.stats gw_a_outer).Host.fragments_out > 0)

(* --- Testbed with a real-size group --- *)

let test_oakley_group_end_to_end () =
  let tb = Testbed.create ~group_bits:1024 () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let got = ref "" in
  Udp_stack.listen b.Testbed.host ~port:7 (fun ~src:_ ~src_port:_ d -> got := d);
  Udp_stack.send a.Testbed.host ~src_port:7 ~dst:(Host.addr b.Testbed.host) ~dst_port:7
    "real group size";
  Testbed.run tb;
  check Alcotest.string "delivered under oakley2" "real group size" !got

let () =
  Alcotest.run "fbs_ip"
    [
      ( "mkd-protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_mkd_protocol_roundtrip;
          Alcotest.test_case "garbage" `Quick test_mkd_protocol_garbage;
        ] );
      ( "mkd",
        [
          Alcotest.test_case "fetch roundtrip" `Quick test_mkd_fetch_roundtrip;
          Alcotest.test_case "unknown principal" `Quick test_mkd_unknown_principal;
          Alcotest.test_case "unknown names fail at once" `Quick
            test_mkd_unknown_names_fail_at_once;
          Alcotest.test_case "coalesces" `Quick test_mkd_coalesces_requests;
          Alcotest.test_case "retransmits on loss" `Quick test_mkd_retransmits_on_loss;
        ] );
      ( "stack",
        [
          Alcotest.test_case "udp end-to-end" `Quick test_stack_udp_end_to_end;
          Alcotest.test_case "strict replay keys on the sender" `Quick
            test_stack_strict_replay_two_senders;
          Alcotest.test_case "cold-flow receive resumes and delivers once"
            `Quick test_stack_cold_flow_receive_resumes;
          Alcotest.test_case "wire is protected" `Quick test_stack_wire_is_protected;
          Alcotest.test_case "auth-only policy" `Quick test_stack_auth_only_policy;
          Alcotest.test_case "fragmentation" `Quick
            test_stack_fragmentation_of_big_datagrams;
          Alcotest.test_case "tcp + MSS fix" `Quick test_stack_tcp_with_mss_fix;
          Alcotest.test_case "MSS honored across late publication" `Quick
            test_stack_mss_honored_before_and_after_publication;
          Alcotest.test_case "uninstall" `Quick test_stack_uninstall;
          Alcotest.test_case "peek ports" `Quick test_peek_ports;
          Alcotest.test_case "standalone sweeper (Figure 7)" `Quick test_stack_sweeper;
          Alcotest.test_case "key-server outage + recovery" `Quick
            test_ca_outage_recovery;
          Alcotest.test_case "re-installed stack draws fresh sfls" `Quick
            test_reinstalled_stack_fresh_sfl;
          Alcotest.test_case "more peers than principal memo slots" `Quick
            test_stack_many_peers_memo;
        ] );
      ( "stack-burst",
        [
          Alcotest.test_case "burst = one at a time under hostile faults" `Quick
            test_burst_matches_one_at_a_time;
          Alcotest.test_case "cold flow in a burst transmits on resume" `Quick
            test_burst_cold_flow_transmits_on_resume;
          Alcotest.test_case "key-server datagram keeps its position" `Quick
            test_burst_bypass_keeps_position;
          Alcotest.test_case "DF too big still raises Send_error" `Quick
            test_burst_df_too_big_escapes;
          Alcotest.test_case "resumed DF too big is dropped, not raised" `Quick
            test_resumed_df_too_big_dropped;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_random_bursts;
        ] );
      ( "cold-flow-send",
        [
          Alcotest.test_case "completion counters" `Quick
            test_cold_flow_completion_counters;
          Alcotest.test_case "resolver failure dropped" `Quick
            test_cold_flow_resolver_failure;
          Alcotest.test_case "waiting for a key is no hook drop" `Quick
            test_cold_flow_waiting_is_no_drop;
        ] );
      ( "raw-ip",
        [ Alcotest.test_case "host-level flows" `Quick test_raw_ip_through_fbs ]
      );
      ( "attacks",
        [ Alcotest.test_case "port reuse (Section 7.1)" `Quick test_port_reuse_attack ]
      );
      ( "topology",
        [
          Alcotest.test_case "FBS across a router" `Quick test_fbs_across_router;
          Alcotest.test_case "clock skew end-to-end" `Quick test_clock_skew_end_to_end;
          Alcotest.test_case "gateway-to-gateway tunnel" `Quick test_gateway_tunnel;
        ] );
      ( "real-group",
        [ Alcotest.test_case "oakley2 end-to-end" `Slow test_oakley_group_end_to_end ]
      );
    ]
