(* Tests for the network simulator substrate: event engine, codecs,
   fragmentation/reassembly, the shared medium, host stacks, UDP and
   mini-TCP. *)

open Fbsr_netsim

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t
let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')
let addr_a = Addr.of_string "10.0.0.1"
let addr_b = Addr.of_string "10.0.0.2"

(* --- Pqueue --- *)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) priorities;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check Alcotest.(list string) "FIFO among equal priorities" [ "a"; "b"; "c" ] order

(* --- Engine --- *)

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:2.0 (fun () -> log := "second" :: !log);
  Engine.schedule eng ~delay:1.0 (fun () ->
      log := "first" :: !log;
      (* Nested scheduling during the run. *)
      Engine.schedule eng ~delay:0.5 (fun () -> log := "nested" :: !log));
  Engine.run eng;
  check Alcotest.(list string) "order" [ "first"; "nested"; "second" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 2.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.schedule eng ~delay:1.0 (fun () -> incr fired);
  Engine.schedule eng ~delay:10.0 (fun () -> incr fired);
  Engine.run ~until:5.0 eng;
  check Alcotest.int "only early event" 1 !fired;
  check (Alcotest.float 1e-9) "clock clamped" 5.0 (Engine.now eng);
  Engine.run eng;
  check Alcotest.int "resumes" 2 !fired

let test_engine_stop () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.schedule eng ~delay:1.0 (fun () ->
      incr fired;
      Engine.stop eng);
  Engine.schedule eng ~delay:2.0 (fun () -> incr fired);
  Engine.run eng;
  check Alcotest.int "stopped" 1 !fired

(* --- Addr --- *)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr string roundtrip" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let addr = Addr.of_octets a b c d in
      Addr.equal addr (Addr.of_string (Addr.to_string addr)))

let test_addr_errors () =
  List.iter
    (fun s ->
      match Addr.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ "1.2.3"; "1.2.3.4.5"; "a.b.c.d"; "256.1.1.1"; "" ]

let test_addr_subnet () =
  let net = Addr.of_string "192.168.1.0" in
  check Alcotest.bool "inside" true
    (Addr.in_subnet ~network:net ~prefix:24 (Addr.of_string "192.168.1.42"));
  check Alcotest.bool "outside" false
    (Addr.in_subnet ~network:net ~prefix:24 (Addr.of_string "192.168.2.42"));
  check Alcotest.bool "prefix 0 matches all" true
    (Addr.in_subnet ~network:net ~prefix:0 (Addr.of_string "8.8.8.8"))

(* --- IPv4 codec --- *)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 encode/decode roundtrip" ~count:200
    QCheck.(triple arbitrary_bytes (int_bound 255) (triple bool bool (int_bound 0x1fff)))
    (fun (payload, protocol, (df, mf, off)) ->
      let h =
        Ipv4.make ~ident:99 ~dont_fragment:df ~more_fragments:mf ~frag_offset:off
          ~protocol ~src:addr_a ~dst:addr_b ~payload_length:(String.length payload) ()
      in
      let h', payload' = Ipv4.decode (Ipv4.encode h payload) in
      h' = h && payload' = payload)

let test_ipv4_checksum_detects_corruption () =
  let h = Ipv4.make ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:4 () in
  let raw = Bytes.of_string (Ipv4.encode h "data") in
  (* Corrupt the TTL byte. *)
  Bytes.set raw 8 '\x00';
  (match Ipv4.decode (Bytes.to_string raw) with
  | _ -> Alcotest.fail "accepted corrupted header"
  | exception Ipv4.Bad_packet _ -> ());
  (* Truncation. *)
  match Ipv4.decode "short" with
  | _ -> Alcotest.fail "accepted truncated packet"
  | exception Ipv4.Bad_packet _ -> ()

let test_ipv4_total_length_check () =
  let h = Ipv4.make ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:10 () in
  Alcotest.check_raises "mismatched payload"
    (Invalid_argument "Ipv4.encode: total_length does not match payload") (fun () ->
      ignore (Ipv4.encode h "123"))

(* --- UDP codec --- *)

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp roundtrip with checksum" ~count:200
    QCheck.(triple arbitrary_bytes (int_bound 0xffff) (int_bound 0xffff))
    (fun (payload, sp, dp) ->
      let raw = Udp.encode ~src:addr_a ~dst:addr_b ~src_port:sp ~dst_port:dp payload in
      let h, payload' = Udp.decode ~src:addr_a ~dst:addr_b raw in
      h.Udp.src_port = sp && h.Udp.dst_port = dp && payload' = payload)

let test_udp_checksum_detects () =
  let raw = Udp.encode ~src:addr_a ~dst:addr_b ~src_port:1 ~dst_port:2 "payload" in
  let b = Bytes.of_string raw in
  Bytes.set b (String.length raw - 1) 'X';
  (match Udp.decode ~src:addr_a ~dst:addr_b (Bytes.to_string b) with
  | _ -> Alcotest.fail "accepted corrupt datagram"
  | exception Udp.Bad_datagram _ -> ());
  (* Wrong pseudo-header (different source): checksum must fail. *)
  match Udp.decode ~src:addr_b ~dst:addr_b raw with
  | _ -> Alcotest.fail "accepted spoofed pseudo-header"
  | exception Udp.Bad_datagram _ -> ()

(* --- TCP segment codec --- *)

let prop_tcp_seg_roundtrip =
  QCheck.Test.make ~name:"tcp segment roundtrip" ~count:200
    QCheck.(
      pair arbitrary_bytes
        (triple (int_bound 0xffff) (int_bound 0xffff) (triple bool bool bool)))
    (fun (payload, (sp, dp, (syn, ack, fin))) ->
      let h =
        {
          Tcp_seg.src_port = sp;
          dst_port = dp;
          seq = 12345l;
          ack_seq = 67890l;
          flags = { Tcp_seg.syn; ack; fin; rst = false; psh = false };
          window = 8192;
        }
      in
      let h', payload' =
        Tcp_seg.decode ~src:addr_a ~dst:addr_b
          (Tcp_seg.encode ~src:addr_a ~dst:addr_b h payload)
      in
      h' = h && payload' = payload)

let test_seq_arithmetic_wraps () =
  let near_max = 0xfffffff0l in
  let wrapped = Tcp_seg.seq_add near_max 0x20 in
  check Alcotest.bool "wrapped forward is greater" true
    (Tcp_seg.seq_cmp wrapped near_max > 0);
  check Alcotest.int "diff across wrap" 0x20 (Tcp_seg.seq_diff wrapped near_max)

(* --- Fragmentation / reassembly --- *)

let test_fragment_shapes () =
  let h = Ipv4.make ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:4000 () in
  let frags = Frag.fragment h (String.make 4000 'x') ~mtu:1500 in
  check Alcotest.int "fragment count" 3 (List.length frags);
  List.iteri
    (fun i (fh, data) ->
      check Alcotest.bool "fits mtu" true (Ipv4.header_size + String.length data <= 1500);
      if i < List.length frags - 1 then begin
        check Alcotest.bool "MF set" true fh.Ipv4.more_fragments;
        check Alcotest.int "multiple of 8" 0 (String.length data mod 8)
      end
      else check Alcotest.bool "MF clear on last" false fh.Ipv4.more_fragments)
    frags

let test_fragment_df_raises () =
  let h =
    Ipv4.make ~dont_fragment:true ~protocol:17 ~src:addr_a ~dst:addr_b
      ~payload_length:4000 ()
  in
  Alcotest.check_raises "DF" Frag.Cannot_fragment (fun () ->
      ignore (Frag.fragment h (String.make 4000 'x') ~mtu:1500))

let reassemble_order name permute =
  let payload = String.init 5000 (fun i -> Char.chr (i land 0xff)) in
  let h =
    Ipv4.make ~ident:7 ~protocol:17 ~src:addr_a ~dst:addr_b
      ~payload_length:(String.length payload) ()
  in
  let frags = permute (Frag.fragment h payload ~mtu:1500) in
  let r = Frag.create () in
  let results = List.map (fun (fh, d) -> Frag.add r ~now:0.0 fh d) frags in
  let complete = List.filter_map Fun.id results in
  check Alcotest.int (name ^ ": one completion") 1 (List.length complete);
  let _, reassembled = List.hd complete in
  check Alcotest.string (name ^ ": payload") payload reassembled;
  check Alcotest.int (name ^ ": table drained") 0 (Frag.pending r)

let test_reassembly_in_order () = reassemble_order "in-order" Fun.id
let test_reassembly_reversed () = reassemble_order "reversed" List.rev

let prop_reassembly_random_order =
  QCheck.Test.make ~name:"reassembly under random arrival order" ~count:50
    QCheck.(pair (int_range 1 8000) small_int)
    (fun (size, seed) ->
      let payload = String.init size (fun i -> Char.chr ((i * 7) land 0xff)) in
      let h =
        Ipv4.make ~ident:9 ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:size ()
      in
      let frags = Array.of_list (Frag.fragment h payload ~mtu:576) in
      (* Shuffle deterministically. *)
      let rng = Fbsr_util.Rng.create seed in
      for i = Array.length frags - 1 downto 1 do
        let j = Fbsr_util.Rng.int rng (i + 1) in
        let tmp = frags.(i) in
        frags.(i) <- frags.(j);
        frags.(j) <- tmp
      done;
      let r = Frag.create () in
      let final = ref None in
      Array.iter
        (fun (fh, d) ->
          match Frag.add r ~now:0.0 fh d with
          | Some (_, p) -> final := Some p
          | None -> ())
        frags;
      !final = Some payload)

let test_reassembly_timeout () =
  let payload = String.make 3000 'y' in
  let h =
    Ipv4.make ~ident:11 ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:3000 ()
  in
  let frags = Frag.fragment h payload ~mtu:1500 in
  let r = Frag.create ~timeout:5.0 () in
  (* Deliver only the first fragment; wait past the timeout; deliver the
     rest: must NOT complete (state was discarded). *)
  match frags with
  | first :: rest ->
      let fh, d = first in
      check Alcotest.bool "incomplete" true (Frag.add r ~now:0.0 fh d = None);
      check Alcotest.int "pending" 1 (Frag.pending r);
      check Alcotest.int "expired" 1 (Frag.expire r 10.0);
      List.iter (fun (fh, d) -> ignore (Frag.add r ~now:10.0 fh d)) rest;
      check Alcotest.bool "still incomplete without first fragment" true
        (Frag.pending r = 1)
  | [] -> Alcotest.fail "no fragments"

let test_unfragmented_passthrough () =
  let h = Ipv4.make ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:5 () in
  let r = Frag.create () in
  check Alcotest.bool "immediate" true (Frag.add r ~now:0.0 h "hello" <> None)

(* --- Medium --- *)

let two_hosts ?(loss = 0.0) ?(dup = 0.0) () =
  let eng = Engine.create () in
  let medium = Medium.create ~loss ~dup ~seed:11 eng in
  let a = Host.create ~name:"a" ~addr:addr_a eng in
  let b = Host.create ~name:"b" ~addr:addr_b eng in
  Host.attach a medium;
  Host.attach b medium;
  (eng, medium, a, b)

let test_medium_tx_time () =
  let eng = Engine.create () in
  let medium = Medium.create ~bandwidth_bps:10_000_000.0 eng in
  (* A 1500-byte IP frame: (1500 + 38) * 8 / 10e6. *)
  check (Alcotest.float 1e-9) "tx time"
    ((1500.0 +. 38.0) *. 8.0 /. 10e6)
    (Medium.tx_time medium 1500);
  (* Minimum frame rule: 10 bytes pads to 46. *)
  check (Alcotest.float 1e-9) "min frame"
    ((46.0 +. 38.0) *. 8.0 /. 10e6)
    (Medium.tx_time medium 10)

let test_medium_loss () =
  let eng, medium, a, b = two_hosts ~loss:1.0 () in
  ignore medium;
  Udp_stack.install a;
  Udp_stack.install b;
  let got = ref 0 in
  Udp_stack.listen b ~port:5 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:5 ~dst:addr_b ~dst_port:5 "x";
  Engine.run eng;
  check Alcotest.int "all lost" 0 !got

let test_medium_dup () =
  let eng, _, a, b = two_hosts ~dup:1.0 () in
  Udp_stack.install a;
  Udp_stack.install b;
  let got = ref 0 in
  Udp_stack.listen b ~port:5 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:5 ~dst:addr_b ~dst_port:5 "x";
  Engine.run eng;
  check Alcotest.int "duplicated" 2 !got

(* --- Host --- *)

let test_host_hooks () =
  let eng, _, a, b = two_hosts () in
  Udp_stack.install a;
  Udp_stack.install b;
  let out_hook_calls = ref 0 and in_hook_calls = ref 0 in
  Host.set_output_hook a (fun h payload ->
      incr out_hook_calls;
      Host.Pass (h, payload));
  Host.set_input_hook b (fun h payload ->
      incr in_hook_calls;
      if !in_hook_calls = 1 then Host.Drop "first one dropped"
      else Host.Pass (h, payload));
  let got = ref 0 in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:7 ~dst:addr_b ~dst_port:7 "one";
  Udp_stack.send a ~src_port:7 ~dst:addr_b ~dst_port:7 "two";
  Engine.run eng;
  check Alcotest.int "output hook ran" 2 !out_hook_calls;
  check Alcotest.int "input hook ran" 2 !in_hook_calls;
  check Alcotest.int "one delivered" 1 !got;
  check Alcotest.int "hook drop counted" 1 (Host.stats b).Host.drops_hook

let test_host_not_mine () =
  let eng, _, _, b = two_hosts () in
  Udp_stack.install b;
  (* A packet addressed elsewhere, delivered to b's NIC. *)
  let h =
    Ipv4.make ~protocol:17 ~src:addr_a ~dst:(Addr.of_string "10.0.0.99")
      ~payload_length:1 ()
  in
  Host.ip_input b (Ipv4.encode h "x");
  Engine.run eng;
  check Alcotest.int "not mine" 1 (Host.stats b).Host.drops_not_mine

let test_host_no_protocol () =
  let eng, _, _, b = two_hosts () in
  let h = Ipv4.make ~protocol:123 ~src:addr_a ~dst:addr_b ~payload_length:1 () in
  Host.ip_input b (Ipv4.encode h "x");
  Engine.run eng;
  check Alcotest.int "no proto handler" 1 (Host.stats b).Host.drops_no_proto

let test_host_unattached () =
  let eng = Engine.create () in
  let lonely = Host.create ~name:"lonely" ~addr:addr_a eng in
  Alcotest.check_raises "unattached" (Host.Send_error "host not attached to a network")
    (fun () -> Host.ip_output lonely ~protocol:17 ~dst:addr_b "x")

let test_host_df_too_big () =
  let _, _, a, _ = two_hosts () in
  match
    Host.ip_output a ~dont_fragment:true ~protocol:17 ~dst:addr_b
      (String.make 5000 'x')
  with
  | () -> Alcotest.fail "DF oversize accepted"
  | exception Host.Send_error _ -> ()

let test_host_fragmentation_end_to_end () =
  let eng, _, a, b = two_hosts () in
  Udp_stack.install a;
  Udp_stack.install b;
  let got = ref "" in
  Udp_stack.listen b ~port:9 (fun ~src:_ ~src_port:_ d -> got := d);
  let payload = String.init 4321 (fun i -> Char.chr ((i * 13) land 0xff)) in
  Udp_stack.send a ~src_port:9 ~dst:addr_b ~dst_port:9 payload;
  Engine.run eng;
  check Alcotest.string "reassembled across the wire" payload !got;
  check Alcotest.bool "fragments were sent" true ((Host.stats a).Host.fragments_out > 2)

(* --- Udp_stack --- *)

let test_udp_stack_ports () =
  let _, _, a, b = two_hosts () in
  Udp_stack.install a;
  Udp_stack.install b;
  Udp_stack.listen b ~port:53 (fun ~src:_ ~src_port:_ _ -> ());
  Alcotest.check_raises "port in use" (Invalid_argument "Udp_stack.listen: port in use")
    (fun () -> Udp_stack.listen b ~port:53 (fun ~src:_ ~src_port:_ _ -> ()));
  Udp_stack.unlisten b ~port:53;
  Udp_stack.listen b ~port:53 (fun ~src:_ ~src_port:_ _ -> ());
  let p1 = Udp_stack.ephemeral_port a in
  let p2 = Udp_stack.ephemeral_port a in
  check Alcotest.bool "ephemeral distinct" true (p1 <> p2)

let test_udp_stack_closed_port () =
  let eng, _, a, b = two_hosts () in
  Udp_stack.install a;
  Udp_stack.install b;
  Udp_stack.send a ~src_port:1 ~dst:addr_b ~dst_port:4444 "nobody home";
  Engine.run eng;
  let _, no_port = Udp_stack.stats b in
  check Alcotest.int "closed port counted" 1 no_port

(* --- Minitcp --- *)

let tcp_pair ?(loss = 0.0) () =
  let eng, medium, a, b = two_hosts ~loss () in
  ignore medium;
  Minitcp.install a;
  Minitcp.install b;
  (eng, a, b)

let run_transfer ~eng ~a ~b ~payload =
  let received = Buffer.create (String.length payload + 1) in
  let server_closed = ref false in
  Minitcp.listen b ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () ->
          server_closed := true;
          Minitcp.close conn));
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  Minitcp.on_established c (fun () ->
      if String.length payload > 0 then Minitcp.send c payload;
      Minitcp.close c);
  Engine.run ~until:600.0 eng;
  (Buffer.contents received, !server_closed, c)

let prop_tcp_transfer_sizes =
  QCheck.Test.make ~name:"tcp delivers exact bytes for many sizes" ~count:25
    QCheck.(int_range 0 60_000)
    (fun size ->
      let eng, a, b = tcp_pair () in
      let payload = String.init size (fun i -> Char.chr ((i * 17) land 0xff)) in
      let got, closed, _ = run_transfer ~eng ~a ~b ~payload in
      got = payload && closed)

let test_tcp_lossy () =
  let eng, a, b = tcp_pair ~loss:0.05 () in
  let payload = String.init 80_000 (fun i -> Char.chr ((i * 3) land 0xff)) in
  let got, _, c = run_transfer ~eng ~a ~b ~payload in
  check Alcotest.string "delivered despite loss" payload got;
  check Alcotest.bool "retransmissions happened" true (Minitcp.retransmits c > 0)

let test_tcp_bidirectional () =
  let eng, a, b = tcp_pair () in
  let to_b = String.make 20_000 'A' and to_a = String.make 15_000 'B' in
  let got_b = Buffer.create 100 and got_a = Buffer.create 100 in
  Minitcp.listen b ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string got_b d);
      Minitcp.send conn to_a;
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  Minitcp.on_receive c (fun d -> Buffer.add_string got_a d);
  Minitcp.on_established c (fun () -> Minitcp.send c to_b);
  Engine.run ~until:30.0 eng;
  Minitcp.close c;
  Engine.run ~until:60.0 eng;
  check Alcotest.string "a->b" to_b (Buffer.contents got_b);
  check Alcotest.string "b->a" to_a (Buffer.contents got_a)

let test_tcp_mss_reduction () =
  let _, a, b = tcp_pair () in
  Minitcp.set_mss_reduction a 42;
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  check Alcotest.int "mss reduced" (1500 - 20 - 20 - 42) (Minitcp.mss c);
  check Alcotest.int "published value" 42 (Minitcp.mss_reduction a)

let test_tcp_two_connections () =
  let eng, a, b = tcp_pair () in
  let counts = Hashtbl.create 4 in
  Minitcp.listen b ~port:80 (fun conn ->
      let port = snd (Minitcp.peer conn) in
      Minitcp.on_receive conn (fun d ->
          Hashtbl.replace counts port
            (String.length d + Option.value ~default:0 (Hashtbl.find_opt counts port)));
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c1 = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  let c2 = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  check Alcotest.bool "distinct local ports" true
    (Minitcp.local_port c1 <> Minitcp.local_port c2);
  Minitcp.on_established c1 (fun () ->
      Minitcp.send c1 (String.make 1000 'x');
      Minitcp.close c1);
  Minitcp.on_established c2 (fun () ->
      Minitcp.send c2 (String.make 2000 'y');
      Minitcp.close c2);
  Engine.run ~until:60.0 eng;
  check Alcotest.int "conn1 bytes" 1000 (Hashtbl.find counts (Minitcp.local_port c1));
  check Alcotest.int "conn2 bytes" 2000 (Hashtbl.find counts (Minitcp.local_port c2))

(* --- Router --- *)

(* Two segments joined by a router; hosts use it as their gateway. *)
let routed_site ?(mtu_b = 1500) () =
  let eng = Engine.create () in
  let seg_a = Medium.create ~seed:21 eng in
  let seg_b = Medium.create ~seed:22 eng in
  let a = Host.create ~name:"a" ~addr:(Addr.of_string "10.0.1.10") eng in
  let b = Host.create ~name:"b" ~addr:(Addr.of_string "10.0.2.10") eng in
  Host.attach a seg_a;
  Host.attach b seg_b;
  let router = Router.create ~name:"r1" () in
  let _ifa = Router.attach router ~addr:(Addr.of_string "10.0.1.1") ~prefix:24 seg_a in
  let _ifb =
    Router.attach router ~addr:(Addr.of_string "10.0.2.1") ~prefix:24 ~mtu:mtu_b seg_b
  in
  Host.set_gateway a ~prefix:24 ~gateway:(Addr.of_string "10.0.1.1");
  Host.set_gateway b ~prefix:24 ~gateway:(Addr.of_string "10.0.2.1");
  Udp_stack.install a;
  Udp_stack.install b;
  (eng, router, a, b)

let test_router_forwards () =
  let eng, router, a, b = routed_site () in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src ~src_port:_ d ->
      got := (Addr.to_string src, d) :: !got;
      (* And reply across the router. *)
      Udp_stack.send b ~src_port:7 ~dst:src ~dst_port:7 ("re: " ^ d));
  let replies = ref [] in
  Udp_stack.listen a ~port:7 (fun ~src:_ ~src_port:_ d -> replies := d :: !replies);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "across segments";
  Engine.run eng;
  check Alcotest.(list (pair string string)) "delivered with source intact"
    [ ("10.0.1.10", "across segments") ]
    !got;
  check Alcotest.(list string) "reply routed back" [ "re: across segments" ] !replies;
  check Alcotest.int "two packets forwarded" 2 (Router.stats router).Router.forwarded

let test_router_refragments () =
  (* The second segment has a small MTU: the router re-fragments and the
     destination reassembles. *)
  let eng, router, a, b = routed_site ~mtu_b:576 () in
  let got = ref "" in
  Udp_stack.listen b ~port:9 (fun ~src:_ ~src_port:_ d -> got := d);
  let payload = String.init 3000 (fun i -> Char.chr ((i * 5) land 0xff)) in
  Udp_stack.send a ~src_port:9 ~dst:(Host.addr b) ~dst_port:9 payload;
  Engine.run eng;
  check Alcotest.string "reassembled after router fragmentation" payload !got;
  check Alcotest.bool "router fragmented" true ((Router.stats router).Router.fragmented > 0)

let test_router_ttl () =
  let eng, router, a, b = routed_site () in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  let got = ref 0 in
  Udp_stack.listen b ~port:8 (fun ~src:_ ~src_port:_ _ -> incr got);
  (* TTL 1: dies at the router. *)
  let raw =
    Udp.encode ~src:(Host.addr a) ~dst:(Host.addr b) ~src_port:8 ~dst_port:8 "dying"
  in
  Host.ip_output a ~ttl:1 ~protocol:Ipv4.proto_udp ~dst:(Host.addr b) raw;
  Engine.run eng;
  check Alcotest.int "expired in transit" 0 !got;
  check Alcotest.int "ttl drop counted" 1 (Router.stats router).Router.dropped_ttl

let test_router_no_route () =
  let eng, router, a, _ = routed_site () in
  Host.ip_output a ~protocol:Ipv4.proto_udp ~dst:(Addr.of_string "192.168.9.9") "x";
  Engine.run eng;
  check Alcotest.int "unroutable dropped" 1 (Router.stats router).Router.dropped_no_route

let test_host_clock_offset () =
  let eng = Engine.create () in
  let h = Host.create ~name:"h" ~addr:addr_a eng in
  Engine.schedule eng ~delay:100.0 (fun () -> ());
  Engine.run eng;
  check (Alcotest.float 1e-9) "no offset" 100.0 (Host.now h);
  Host.set_clock_offset h (-30.0);
  check (Alcotest.float 1e-9) "skewed" 70.0 (Host.now h);
  check (Alcotest.float 1e-9) "offset readable" (-30.0) (Host.clock_offset h)

let test_tcp_adaptive_rto () =
  (* On a slow link where the full window takes longer than the initial
     RTO to serialize, the adaptive RTO must learn the real RTT instead of
     spuriously retransmitting every window (RFC 6298 behaviour). *)
  let eng = Engine.create () in
  let medium = Medium.create ~bandwidth_bps:1_544_000.0 ~seed:13 eng in
  let a = Host.create ~name:"a" ~addr:addr_a eng in
  let b = Host.create ~name:"b" ~addr:addr_b eng in
  Host.attach a medium;
  Host.attach b medium;
  Minitcp.install a;
  Minitcp.install b;
  let payload = String.make 300_000 'r' in
  let got, closed, c = run_transfer ~eng ~a ~b ~payload in
  check Alcotest.string "delivered" payload got;
  check Alcotest.bool "closed" true closed;
  (* Without RTT adaptation this transfer suffers dozens of spurious
     window retransmissions; with it, almost none. *)
  check Alcotest.bool "few retransmissions" true (Minitcp.retransmits c <= 2)

let test_tcp_send_after_close_rejected () =
  let _, a, b = tcp_pair () in
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  Minitcp.close c;
  Alcotest.check_raises "send after close"
    (Invalid_argument "Minitcp.send: connection closing") (fun () ->
      Minitcp.send c "late")

(* A deterministic adversarial path: both hosts' egress passes through a
   seeded fault-injection link that drops and reorders.  The transfer
   must still deliver every byte, and the congestion machinery must have
   engaged: retransmissions happened and ssthresh came down from its
   initial ceiling (multiplicative decrease). *)
let test_tcp_seeded_loss_link () =
  let eng, _, a, b = two_hosts () in
  let profile =
    { Link.perfect with Link.drop = 0.02; reorder = 0.05; reorder_delay = 0.005 }
  in
  Host.set_link a (Link.create ~seed:41 ~profile eng);
  Host.set_link b (Link.create ~seed:42 ~profile eng);
  Minitcp.install a;
  Minitcp.install b;
  let payload = String.init 150_000 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let got, closed, c = run_transfer ~eng ~a ~b ~payload in
  check Alcotest.string "delivered through drop+reorder" payload got;
  check Alcotest.bool "closed cleanly" true closed;
  check Alcotest.bool "retransmissions happened" true (Minitcp.retransmits c > 0);
  check Alcotest.bool "loss signal reached cwnd" true
    (Minitcp.fast_retransmits c + Minitcp.timeouts c > 0);
  check Alcotest.bool "ssthresh decreased from ceiling" true
    (Minitcp.ssthresh c < 65535)

(* A total blackout: the RTO must back off exponentially (Karn), and the
   connection must still complete once the network heals. *)
let test_tcp_rto_backoff_and_recovery () =
  let eng, _, a, b = two_hosts () in
  let link = Link.create ~seed:43 ~profile:{ Link.perfect with Link.drop = 1.0 } eng in
  Host.set_link a link;
  Minitcp.install a;
  Minitcp.install b;
  let payload = String.make 20_000 'k' in
  let received = Buffer.create 100 in
  Minitcp.listen b ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  Minitcp.on_established c (fun () ->
      Minitcp.send c payload;
      Minitcp.close c);
  (* Black hole for two seconds: the initial 200 ms RTO must have doubled
     at least twice. *)
  Engine.run ~until:2.0 eng;
  check Alcotest.bool "timeouts accumulated" true (Minitcp.timeouts c >= 2);
  check Alcotest.bool "rto backed off" true (Minitcp.rto c >= 0.8);
  Link.set_profile link Link.perfect;
  Engine.run ~until:120.0 eng;
  check Alcotest.string "delivered after healing" payload (Buffer.contents received)

(* cwnd trajectory: slow start growth on a clean link, collapse to one
   segment after a timeout. *)
let test_tcp_cwnd_dynamics () =
  let eng, _, a, b = two_hosts () in
  let link = Link.create ~seed:44 ~profile:Link.perfect eng in
  Host.set_link a link;
  Minitcp.install a;
  Minitcp.install b;
  let payload = String.make 60_000 'c' in
  let received = Buffer.create 100 in
  Minitcp.listen b ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d));
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  let initial_cwnd = ref 0 in
  Minitcp.on_established c (fun () ->
      initial_cwnd := Minitcp.cwnd c;
      Minitcp.send c payload);
  Engine.run eng;
  check Alcotest.int "initial window is two segments" (2 * Minitcp.mss c)
    !initial_cwnd;
  check Alcotest.string "delivered" payload (Buffer.contents received);
  check Alcotest.bool "slow start grew cwnd" true (Minitcp.cwnd c > !initial_cwnd);
  (* Push more data into a black hole: the timeout must collapse cwnd to
     one segment. *)
  Link.set_profile link { Link.perfect with Link.drop = 1.0 };
  Minitcp.send c (String.make 5_000 'd');
  Engine.run ~until:(Engine.now eng +. 3.0) eng;
  check Alcotest.bool "timeout collapsed cwnd" true
    (Minitcp.cwnd c = Minitcp.mss c);
  check Alcotest.bool "ssthresh halved the flight" true (Minitcp.ssthresh c < 65535)

(* The paper's tcp_output fix must hold for connections established
   before the security layer published its header allowance, not just
   after: segment sizing reads the published reduction at output time. *)
let test_tcp_mss_reduction_late () =
  let eng, a, b = tcp_pair () in
  let received = Buffer.create 100 in
  Minitcp.listen b ~port:80 (fun conn ->
      Minitcp.on_receive conn (fun d -> Buffer.add_string received d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let c = Minitcp.connect a ~dst:(Host.addr b) ~dst_port:80 in
  check Alcotest.int "full mss before publication" (1500 - 20 - 20) (Minitcp.mss c);
  (* The security layer comes up after the connection: the published
     reduction applies to this connection's subsequent segments too. *)
  Minitcp.set_mss_reduction a 42;
  check Alcotest.int "reduced mss on live connection" (1500 - 20 - 20 - 42)
    (Minitcp.mss c);
  let payload = String.make 30_000 'm' in
  Minitcp.on_established c (fun () ->
      Minitcp.send c payload;
      Minitcp.close c);
  Engine.run ~until:60.0 eng;
  check Alcotest.string "delivered under reduced mss" payload
    (Buffer.contents received)

(* --- ICMP codec --- *)

let test_icmp_codec () =
  let m = { Icmp.msg_type = 8; code = 0; id = 42; seq = 7; payload = "pingdata" } in
  let m' = Icmp.decode (Icmp.encode m) in
  check Alcotest.int "type" 8 m'.Icmp.msg_type;
  check Alcotest.int "id" 42 m'.Icmp.id;
  check Alcotest.int "seq" 7 m'.Icmp.seq;
  check Alcotest.string "payload" "pingdata" m'.Icmp.payload;
  (* Corruption detected by the checksum. *)
  let raw = Bytes.of_string (Icmp.encode m) in
  Bytes.set raw 9 'X';
  (match Icmp.decode (Bytes.to_string raw) with
  | _ -> Alcotest.fail "corrupt ICMP accepted"
  | exception Icmp.Bad_message _ -> ());
  match Icmp.decode "short" with
  | _ -> Alcotest.fail "short ICMP accepted"
  | exception Icmp.Bad_message _ -> ()

let test_icmp_ping_plain () =
  let eng, _, a, b = two_hosts () in
  Icmp.install a;
  Icmp.install b;
  let rtts = ref [] in
  for _ = 1 to 3 do
    Icmp.ping a ~dst:addr_b (fun rtt payload ->
        check Alcotest.string "payload echoed" "abcdefghijklmnop" payload;
        rtts := rtt :: !rtts)
  done;
  Engine.run eng;
  check Alcotest.int "three replies" 3 (List.length !rtts);
  List.iter (fun rtt -> check Alcotest.bool "positive rtt" true (rtt > 0.0)) !rtts

let test_host_loopback () =
  let eng, _, a, _ = two_hosts () in
  Udp_stack.install a;
  let got = ref "" in
  Udp_stack.listen a ~port:9 (fun ~src:_ ~src_port:_ d -> got := d);
  Host.loopback a ~protocol:Ipv4.proto_udp ~dst:addr_a
    (Udp.encode ~src:addr_a ~dst:addr_a ~src_port:9 ~dst_port:9 "to myself");
  Engine.run eng;
  check Alcotest.string "loopback delivery" "to myself" !got

let test_medium_utilization () =
  let eng = Engine.create () in
  let medium = Medium.create ~bandwidth_bps:10e6 eng in
  let sink = Host.create ~name:"sink" ~addr:addr_b eng in
  Host.attach sink medium;
  let src = Host.create ~name:"src" ~addr:addr_a eng in
  Host.attach src medium;
  Host.ip_output src ~protocol:123 ~dst:addr_b (String.make 1000 'x');
  Engine.run eng;
  let stats = Medium.stats medium in
  check Alcotest.int "one frame" 1 stats.Medium.frames;
  check Alcotest.int "bytes counted" 1020 stats.Medium.bytes;
  (* Utilization over exactly the frame's wire time is 100%. *)
  let wire_time = Medium.tx_time medium 1020 in
  check (Alcotest.float 1e-6) "utilization" 1.0 (Medium.utilization medium ~elapsed:wire_time)

(* --- Sun RPC --- *)

let rpc_pair ?(loss = 0.0) () =
  let eng, _, a, b = two_hosts ~loss () in
  Udp_stack.install a;
  Udp_stack.install b;
  let server = Sunrpc.Server.install b in
  Sunrpc.Server.register server ~prog:100 ~proc:1 (fun arg -> "echo:" ^ arg);
  Sunrpc.Server.register server ~prog:100 ~proc:2 (fun arg ->
      string_of_int (String.length arg));
  let client = Sunrpc.create a in
  (eng, a, b, server, client)

let test_rpc_call_reply () =
  let eng, _, b, server, client = rpc_pair () in
  let results = ref [] in
  Sunrpc.call client ~server:(Host.addr b) ~server_port:111 ~prog:100 ~proc:1 "hello"
    (fun r -> results := r :: !results);
  Sunrpc.call client ~server:(Host.addr b) ~server_port:111 ~prog:100 ~proc:2
    "12345678" (fun r -> results := r :: !results);
  Engine.run eng;
  check
    Alcotest.(list (result string string))
    "both calls answered"
    [ Ok "echo:hello"; Ok "8" ]
    (List.rev_map
       (function Ok s -> Ok s | Error _ -> Error "rpc error")
       !results);
  check Alcotest.int "served" 2 (Sunrpc.Server.calls_served server)

let test_rpc_unknown_procedure () =
  let eng, _, b, _, client = rpc_pair () in
  let result = ref None in
  Sunrpc.call client ~server:(Host.addr b) ~server_port:111 ~prog:100 ~proc:99 "x"
    (fun r -> result := Some r);
  Engine.run eng;
  check Alcotest.bool "no such procedure" true (!result = Some (Error Sunrpc.No_such_procedure))

let test_rpc_retries_through_loss () =
  let eng, _, b, _, client = rpc_pair ~loss:0.6 () in
  let result = ref None in
  Sunrpc.call client ~server:(Host.addr b) ~server_port:111 ~prog:100 ~proc:1 "lossy"
    (fun r -> result := Some r);
  Engine.run ~until:30.0 eng;
  (* With 4 attempts at 60% loss the call usually succeeds; whichever way
     it resolves, it must resolve exactly once and count retries. *)
  check Alcotest.bool "resolved" true (!result <> None);
  check Alcotest.bool "retried" true (Sunrpc.retransmissions client >= 1)

let test_rpc_timeout_when_server_dead () =
  let eng, _, b, _, client = rpc_pair ~loss:1.0 () in
  let result = ref None in
  Sunrpc.call client ~server:(Host.addr b) ~server_port:111 ~prog:100 ~proc:1 "void"
    (fun r -> result := Some r);
  Engine.run ~until:60.0 eng;
  check Alcotest.bool "timed out" true (!result = Some (Error Sunrpc.Timed_out))

let test_rpc_duplicate_reply_absorbed () =
  (* Duplicate the network: every reply arrives twice; the client must
     invoke the continuation once and count the duplicate. *)
  let eng, _, a, b = two_hosts ~dup:1.0 () in
  Udp_stack.install a;
  Udp_stack.install b;
  let server = Sunrpc.Server.install b in
  Sunrpc.Server.register server ~prog:1 ~proc:1 (fun _ -> "once");
  let client = Sunrpc.create a in
  let completions = ref 0 in
  Sunrpc.call client ~server:(Host.addr b) ~server_port:111 ~prog:1 ~proc:1 "x"
    (fun _ -> incr completions);
  Engine.run ~until:30.0 eng;
  check Alcotest.int "continuation ran once" 1 !completions;
  check Alcotest.bool "duplicate absorbed" true (Sunrpc.duplicate_replies client >= 1)

let () =
  Alcotest.run "netsim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
          qtest prop_pqueue_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "stop" `Quick test_engine_stop;
        ] );
      ( "addr",
        [
          Alcotest.test_case "errors" `Quick test_addr_errors;
          Alcotest.test_case "subnet" `Quick test_addr_subnet;
          qtest prop_addr_roundtrip;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "checksum + truncation" `Quick
            test_ipv4_checksum_detects_corruption;
          Alcotest.test_case "length check" `Quick test_ipv4_total_length_check;
          qtest prop_ipv4_roundtrip;
        ] );
      ( "udp",
        [
          Alcotest.test_case "checksum detects" `Quick test_udp_checksum_detects;
          qtest prop_udp_roundtrip;
        ] );
      ( "tcp-seg",
        [
          Alcotest.test_case "seq wraparound" `Quick test_seq_arithmetic_wraps;
          qtest prop_tcp_seg_roundtrip;
        ] );
      ( "frag",
        [
          Alcotest.test_case "fragment shapes" `Quick test_fragment_shapes;
          Alcotest.test_case "DF raises" `Quick test_fragment_df_raises;
          Alcotest.test_case "reassembly in order" `Quick test_reassembly_in_order;
          Alcotest.test_case "reassembly reversed" `Quick test_reassembly_reversed;
          Alcotest.test_case "timeout discards state" `Quick test_reassembly_timeout;
          Alcotest.test_case "unfragmented passthrough" `Quick
            test_unfragmented_passthrough;
          qtest prop_reassembly_random_order;
        ] );
      ( "medium",
        [
          Alcotest.test_case "tx time" `Quick test_medium_tx_time;
          Alcotest.test_case "loss" `Quick test_medium_loss;
          Alcotest.test_case "duplication" `Quick test_medium_dup;
        ] );
      ( "host",
        [
          Alcotest.test_case "hooks" `Quick test_host_hooks;
          Alcotest.test_case "not mine" `Quick test_host_not_mine;
          Alcotest.test_case "no protocol" `Quick test_host_no_protocol;
          Alcotest.test_case "unattached" `Quick test_host_unattached;
          Alcotest.test_case "DF too big" `Quick test_host_df_too_big;
          Alcotest.test_case "fragmentation end-to-end" `Quick
            test_host_fragmentation_end_to_end;
        ] );
      ( "udp-stack",
        [
          Alcotest.test_case "ports" `Quick test_udp_stack_ports;
          Alcotest.test_case "closed port" `Quick test_udp_stack_closed_port;
        ] );
      ( "router",
        [
          Alcotest.test_case "forwards both ways" `Quick test_router_forwards;
          Alcotest.test_case "re-fragments on small MTU" `Quick test_router_refragments;
          Alcotest.test_case "ttl expiry" `Quick test_router_ttl;
          Alcotest.test_case "no route" `Quick test_router_no_route;
          Alcotest.test_case "clock offset" `Quick test_host_clock_offset;
        ] );
      ( "icmp",
        [
          Alcotest.test_case "codec + checksum" `Quick test_icmp_codec;
          Alcotest.test_case "ping round trip" `Quick test_icmp_ping_plain;
          Alcotest.test_case "host loopback" `Quick test_host_loopback;
          Alcotest.test_case "medium accounting" `Quick test_medium_utilization;
        ] );
      ( "sunrpc",
        [
          Alcotest.test_case "call/reply" `Quick test_rpc_call_reply;
          Alcotest.test_case "unknown procedure" `Quick test_rpc_unknown_procedure;
          Alcotest.test_case "retries through loss" `Quick test_rpc_retries_through_loss;
          Alcotest.test_case "timeout on dead server" `Quick
            test_rpc_timeout_when_server_dead;
          Alcotest.test_case "duplicate reply absorbed" `Quick
            test_rpc_duplicate_reply_absorbed;
        ] );
      ( "minitcp",
        [
          Alcotest.test_case "lossy link recovery" `Quick test_tcp_lossy;
          Alcotest.test_case "bidirectional" `Quick test_tcp_bidirectional;
          Alcotest.test_case "mss reduction" `Quick test_tcp_mss_reduction;
          Alcotest.test_case "two connections" `Quick test_tcp_two_connections;
          Alcotest.test_case "adaptive RTO on slow links" `Quick test_tcp_adaptive_rto;
          Alcotest.test_case "send after close" `Quick
            test_tcp_send_after_close_rejected;
          Alcotest.test_case "seeded drop+reorder link" `Quick
            test_tcp_seeded_loss_link;
          Alcotest.test_case "RTO backoff and recovery" `Quick
            test_tcp_rto_backoff_and_recovery;
          Alcotest.test_case "cwnd dynamics" `Quick test_tcp_cwnd_dynamics;
          Alcotest.test_case "mss reduction on live connection" `Quick
            test_tcp_mss_reduction_late;
          qtest prop_tcp_transfer_sizes;
        ] );
    ]
