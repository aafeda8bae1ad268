(* Tests for the network simulator substrate: event engine, codecs,
   fragmentation/reassembly, the shared medium, host stacks, UDP and
   mini-TCP. *)

open Fbsr_netsim

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t
let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')
let addr_a = Addr.of_string "10.0.0.1"
let addr_b = Addr.of_string "10.0.0.2"

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

let test_addr_to_string () =
  List.iter
    (fun (a, b, c, d, want) ->
      let addr = Addr.of_octets a b c d in
      check Alcotest.string want want (Addr.to_string addr);
      check Alcotest.bool (want ^ " round trips") true
        (Addr.equal addr (Addr.of_string (Addr.to_string addr))))
    [
      (0, 0, 0, 0, "0.0.0.0");
      (255, 255, 255, 255, "255.255.255.255");
      (10, 0, 1, 7, "10.0.1.7");
    ];
  (* Every octet value in every position, against the dotted-quad
     format the direct formatter replaced. *)
  for o = 0 to 255 do
    List.iter
      (fun (a, b, c, d) ->
        check Alcotest.string "octet" (Printf.sprintf "%d.%d.%d.%d" a b c d)
          (Addr.to_string (Addr.of_octets a b c d)))
      [ (o, 1, 2, 3); (4, o, 5, 6); (7, 8, o, 9); (10, 11, 12, o) ]
  done

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
      (* The next fragment, 10 s on, first drops the timed-out entry. *)
      List.iter (fun (fh, d) -> ignore (Frag.add r ~now:10.0 fh d)) rest;
      check Alcotest.bool "still incomplete without first fragment" true
        (Frag.pending r = 1)
  | [] -> Alcotest.fail "no fragments"

(* Duplicates of a fragment (fresh strings, as off the wire) must neither
   grow a reassembly entry nor push its deadline back. *)
let test_reassembly_duplicates () =
  let payload = String.init 4000 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let h =
    Ipv4.make ~ident:13 ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:4000 ()
  in
  match Frag.fragment h payload ~mtu:1500 with
  | (fh, d) :: rest ->
      let copy () = Bytes.to_string (Bytes.of_string d) in
      let r = Frag.create ~timeout:30.0 () in
      check Alcotest.bool "incomplete" true (Frag.add r ~now:0.0 fh d = None);
      let words = Obj.reachable_words (Obj.repr r) in
      for _ = 1 to 1000 do
        ignore (Frag.add r ~now:0.0 fh (copy ()))
      done;
      check Alcotest.int "1000 duplicates stored nothing" words
        (Obj.reachable_words (Obj.repr r));
      let last = List.filter_map (fun (fh, d) -> Frag.add r ~now:1.0 fh d) rest in
      check
        Alcotest.(list string)
        "reassembled byte for byte" [ payload ] (List.map snd last);
      check Alcotest.int "table drained" 0 (Frag.pending r);
      let r = Frag.create ~timeout:30.0 () in
      ignore (Frag.add r ~now:0.0 fh d);
      ignore (Frag.add r ~now:20.0 fh (copy ()));
      (* Had the duplicate pushed the deadline to 50 s, the rest would
         complete the datagram at 30.5 s. *)
      check
        Alcotest.(list string)
        "expired 30 s after the first fragment" []
        (List.map snd (List.filter_map (fun (fh, d) -> Frag.add r ~now:30.5 fh d) rest));
      check Alcotest.int "only the rest's new entry is left" 1 (Frag.pending r)
  | [] -> Alcotest.fail "no fragments"

let test_unfragmented_passthrough () =
  let h = Ipv4.make ~protocol:17 ~src:addr_a ~dst:addr_b ~payload_length:5 () in
  let r = Frag.create () in
  check Alcotest.bool "immediate" true (Frag.add r ~now:0.0 h "hello" <> None)

(* --- Medium --- *)

(* Two hosts on one segment.  [loss]/[dup] put a fault-injection link on
   each host's egress, so both directions suffer them. *)
let two_hosts ?(loss = 0.0) ?(dup = 0.0) () =
  let eng = Engine.create () in
  let medium = Medium.create eng in
  let a = Host.create ~name:"a" ~addr:addr_a eng in
  let b = Host.create ~name:"b" ~addr:addr_b eng in
  Host.attach a medium;
  Host.attach b medium;
  if loss > 0.0 || dup > 0.0 then begin
    let profile = { Link.perfect with Link.drop = loss; duplicate = dup } in
    Host.set_link a (Link.create ~seed:11 ~profile eng);
    Host.set_link b (Link.create ~seed:12 ~profile eng)
  end;
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

(* --- Host --- *)

let test_host_hooks () =
  let eng, _, a, b = two_hosts () in
  Udp_stack.install a;
  Udp_stack.install b;
  let out_hook_calls = ref 0 and in_hook_calls = ref 0 in
  Host.set_output_hook a (fun h payload k ->
      incr out_hook_calls;
      k (Host.Pass (h, payload)));
  Host.set_input_hook b (fun h payload k ->
      incr in_hook_calls;
      k (if !in_hook_calls = 1 then Host.Drop "first one dropped" else Host.Pass (h, payload)));
  let got = ref 0 in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:7 ~dst:addr_b ~dst_port:7 "one";
  Udp_stack.send a ~src_port:7 ~dst:addr_b ~dst_port:7 "two";
  Engine.run eng;
  check Alcotest.int "output hook ran" 2 !out_hook_calls;
  check Alcotest.int "input hook ran" 2 !in_hook_calls;
  check Alcotest.int "one delivered" 1 !got;
  check Alcotest.int "hook drop counted" 1 (Host.stats b).Host.drops_hook

(* The host's [Send_error] rule on its own.  The output hook holds every
   datagram too big for the MTU and answers it [Pass] only from the
   burst-end function (or from [later]); the rest pass at once. *)
let test_host_burst_send_error () =
  let eng, _, a, b = two_hosts () in
  let held = ref [] in
  Host.set_output_hook a (fun h payload k ->
      if String.length payload > 1500 then held := (h, payload, k) :: !held
      else k (Host.Pass (h, payload)));
  let answer () =
    let answers = List.rev !held in
    held := [];
    List.iter (fun (h, payload, k) -> k (Host.Pass (h, payload))) answers
  in
  Host.set_burst_end a answer;
  let got = ref [] in
  Host.register_protocol b ~protocol:17 (fun _ _ payload -> got := payload :: !got);
  let big = String.make 1600 'x' in
  let send ?(dont_fragment = false) payload =
    Host.ip_output a ~dont_fragment ~protocol:17 ~dst:addr_b payload
  in
  let raised = ref 0 in
  (try
     Host.burst a (fun () ->
         send ~dont_fragment:true big;
         send "behind it";
         send ~dont_fragment:true big;
         check Alcotest.int "nothing raised inside the burst" 0 (Host.stats a).Host.send_errors)
   with Host.Send_error _ -> incr raised);
  check Alcotest.int "raised once, at burst end" 1 !raised;
  check Alcotest.int "both too-big datagrams counted" 2 (Host.stats a).Host.send_errors;
  Engine.run eng;
  check Alcotest.(list string) "the datagram behind them went out" [ "behind it" ] !got;
  (* The same verdict from a later event has no caller: counted only. *)
  Host.set_burst_end a ignore;
  send ~dont_fragment:true big;
  Engine.schedule eng ~delay:1.0 answer;
  Engine.run eng;
  check Alcotest.int "counted from the later event" 3 (Host.stats a).Host.send_errors;
  check Alcotest.int "nothing more delivered" 1 (List.length !got)

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
  check Alcotest.bool "fragments were sent" true ((Host.stats a).Host.fragments_out > 2);
  check Alcotest.int "one datagram reassembled" 1 (Host.stats b).Host.reassembled

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
  let seg_a = Medium.create eng in
  let seg_b = Medium.create eng in
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
  (eng, seg_a, router, a, b)

let test_router_forwards () =
  let eng, _, router, a, b = routed_site () in
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
  let eng, _, router, a, b = routed_site ~mtu_b:576 () in
  let got = ref "" in
  Udp_stack.listen b ~port:9 (fun ~src:_ ~src_port:_ d -> got := d);
  let payload = String.init 3000 (fun i -> Char.chr ((i * 5) land 0xff)) in
  Udp_stack.send a ~src_port:9 ~dst:(Host.addr b) ~dst_port:9 payload;
  Engine.run eng;
  check Alcotest.string "reassembled after router fragmentation" payload !got;
  check Alcotest.bool "router fragmented" true ((Router.stats router).Router.fragmented > 0)

let test_router_ttl () =
  let eng, seg_a, router, a, b = routed_site () in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  let got = ref 0 in
  Udp_stack.listen b ~port:8 (fun ~src:_ ~src_port:_ _ -> incr got);
  (* TTL 1, framed to the router by hand: it dies there. *)
  let raw =
    Udp.encode ~src:(Host.addr a) ~dst:(Host.addr b) ~src_port:8 ~dst_port:8 "dying"
  in
  let h =
    Ipv4.make ~ttl:1 ~protocol:Ipv4.proto_udp ~src:(Host.addr a) ~dst:(Host.addr b)
      ~payload_length:(String.length raw) ()
  in
  Medium.transmit seg_a ~dst:(Addr.of_string "10.0.1.1") (Ipv4.encode h raw);
  Engine.run eng;
  check Alcotest.int "expired in transit" 0 !got;
  check Alcotest.int "ttl drop counted" 1 (Router.stats router).Router.dropped_ttl

let test_router_no_route () =
  let eng, _, router, a, _ = routed_site () in
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
  let medium = Medium.create ~bandwidth_bps:1_544_000.0 eng in
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

(* --- Request --- *)

(* The network duplicates every frame: the request goes out twice, each
   copy is echoed and each echo arrives twice.  The first echo completes
   the request and answers its waiter; [complete] refuses the other three,
   and no retransmission fires behind the answered request. *)
let test_request_duplicate_reply_absorbed () =
  let eng, _, a, b = two_hosts ~dup:1.0 () in
  Udp_stack.install a;
  Udp_stack.install b;
  Udp_stack.listen b ~port:7 (fun ~src ~src_port d ->
      Udp_stack.send b ~src_port:7 ~dst:src ~dst_port:src_port d);
  let requests = Request.create ~seed:1 ~timeout:1.0 ~max_attempts:4 ~timed_out:None a in
  let duplicates = ref 0 in
  Udp_stack.listen a ~port:700 (fun ~src:_ ~src_port:_ d ->
      if not (Request.complete requests (int_of_string d) (Some d)) then incr duplicates);
  let answers = ref [] in
  Request.start requests 42 ()
    ~send:(fun _ -> Udp_stack.send a ~src_port:700 ~dst:addr_b ~dst_port:7 "42")
    (fun r -> answers := r :: !answers);
  Engine.run ~until:30.0 eng;
  check Alcotest.(list (option string)) "waiter answered once" [ Some "42" ] !answers;
  check Alcotest.int "duplicates refused" 3 !duplicates;
  check Alcotest.int "no retransmission" 0 (Request.retransmissions requests)

(* --- Codecs against their reference oracles --- *)

module Ref = Fbsr_oracles.Net_ref

let gen_addr = QCheck.Gen.map Addr.of_int (QCheck.Gen.int_bound 0xffffffff)
let gen_payload = QCheck.Gen.(string_size ~gen:char (int_bound 1500))

(* Single-byte corruptions: (position, nonzero xor mask), positions taken
   modulo the wire length. *)
let gen_flips = QCheck.Gen.(list_size (int_range 1 12) (pair nat (int_range 1 255)))

let flip raw (pos, mask) =
  let b = Bytes.of_string raw in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  Bytes.unsafe_to_string b

(* A decoder's verdict: the decoded value, or the reason it refused. *)
let verdict f =
  match f () with
  | v -> Ok v
  | exception
      ( Ipv4.Bad_packet m
      | Udp.Bad_datagram m
      | Tcp_seg.Bad_segment m ) ->
      Error m

(* Each corruption, and a truncation, is judged alike by both decoders. *)
let same_verdicts ~decode ~ref_decode raw flips cut =
  List.for_all
    (fun raw -> verdict (fun () -> decode raw) = verdict (fun () -> ref_decode raw))
    (raw :: String.sub raw 0 (cut mod (String.length raw + 1)) :: List.map (flip raw) flips)

let gen_ipv4 =
  QCheck.Gen.(
    let* tos = int_bound 255 and* ident = int_bound 0xffff and* df = bool and* mf = bool in
    let* frag_offset = int_bound 0x1fff and* ttl = int_bound 255 in
    let* protocol = int_bound 255 and* src = gen_addr and* dst = gen_addr in
    let* words = int_bound 10 in
    let* options = string_size ~gen:char (return (4 * words)) in
    let* payload = gen_payload and* flips = gen_flips and* cut = nat in
    return
      ( Ipv4.make ~tos ~ident ~dont_fragment:df ~more_fragments:mf ~frag_offset ~ttl
          ~options ~protocol ~src ~dst ~payload_length:(String.length payload) (),
        payload,
        flips,
        cut ))

let prop_ipv4_oracle =
  QCheck.Test.make ~name:"ipv4 codec = oracle (bytes, verdicts under corruption)" ~count:300
    (QCheck.make gen_ipv4)
    (fun (h, payload, flips, cut) ->
      let raw = Ipv4.encode h payload in
      raw = Ref.ipv4_encode h payload
      && Ipv4.encode_header h = Ref.ipv4_encode_header h
      && same_verdicts ~decode:Ipv4.decode ~ref_decode:Ref.ipv4_decode raw flips cut)

let prop_udp_oracle =
  QCheck.Test.make ~name:"udp codec = oracle (bytes, verdicts under corruption)" ~count:300
    (QCheck.make
       QCheck.Gen.(
         tup6 gen_addr gen_addr (int_bound 0xffff) (int_bound 0xffff) gen_payload
           (pair gen_flips nat)))
    (fun (src, dst, src_port, dst_port, payload, (flips, cut)) ->
      let raw = Udp.encode ~src ~dst ~src_port ~dst_port payload in
      raw = Ref.udp_encode ~src ~dst ~src_port ~dst_port payload
      && same_verdicts ~decode:(Udp.decode ~src ~dst) ~ref_decode:(Ref.udp_decode ~src ~dst)
           raw flips cut
      (* The pseudo-header is covered: another source is refused alike. *)
      && verdict (fun () -> Udp.decode ~src:dst ~dst raw)
         = verdict (fun () -> Ref.udp_decode ~src:dst ~dst raw))

let gen_tcp =
  QCheck.Gen.(
    let* src_port = int_bound 0xffff and* dst_port = int_bound 0xffff in
    let* seq = map Int32.of_int (int_bound 0xffffffff)
    and* ack_seq = map Int32.of_int (int_bound 0xffffffff) in
    let* syn = bool and* ack = bool and* fin = bool and* rst = bool and* psh = bool in
    let* window = int_bound 0xffff in
    return
      {
        Tcp_seg.src_port;
        dst_port;
        seq;
        ack_seq;
        flags = { Tcp_seg.syn; ack; fin; rst; psh };
        window;
      })

let prop_tcp_oracle =
  QCheck.Test.make ~name:"tcp codec = oracle (bytes, verdicts under corruption)" ~count:300
    (QCheck.make QCheck.Gen.(tup6 gen_addr gen_addr gen_tcp gen_payload gen_flips nat))
    (fun (src, dst, h, payload, flips, cut) ->
      let raw = Tcp_seg.encode ~src ~dst h payload in
      raw = Ref.tcp_encode ~src ~dst h payload
      && same_verdicts ~decode:(Tcp_seg.decode ~src ~dst)
           ~ref_decode:(Ref.tcp_decode ~src ~dst) raw flips cut)

(* --- Codec allocation (the GC is the measure) --- *)

(* Minor-heap words per call of [f], over 1000 calls after a warm one. *)
let minor_words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. 1000.

(* Each codec allocates its result, and UDP/TCP the [Some] of the
   pseudo-header sum.  Measured words per call: Udp.encode of 64 B 13 (the 72-byte datagram, 11, and the [Some]
   of the pseudo-header sum, 2); Ipv4.encode of a 100-byte payload 17;
   Ipv4.decode of it 29 (payload 14, header record 12, pair 3);
   Tcp_seg.encode of 1 418 B 183.  The bounds sit 1.25x over those.  The
   reference encoders, which build each header through a [Byte_writer]
   and copy the datagram two to four times, take 64, 44 and 744 words and
   fail them: the test checks that too, so the bounds keep their teeth. *)
let test_codec_allocation () =
  let tcp_h =
    {
      Tcp_seg.src_port = 5001;
      dst_port = 5002;
      seq = 1l;
      ack_seq = 2l;
      flags = { Tcp_seg.no_flags with ack = true; psh = true };
      window = 65535;
    }
  in
  let p64 = String.make 64 'u' and p100 = String.make 100 'i' in
  let p1418 = String.make 1418 't' in
  let ip_h =
    Ipv4.make ~ident:7 ~protocol:Ipv4.proto_udp ~src:addr_a ~dst:addr_b ~payload_length:100
      ()
  in
  let ip_raw = Ipv4.encode ip_h p100 in
  List.iter
    (fun (what, bound, f, ref_f) ->
      let w = minor_words_per_call f in
      if w > bound then Alcotest.failf "%s: %.1f minor words a call, want <= %.0f" what w bound;
      match ref_f with
      | None -> ()
      | Some ref_f ->
          let w = minor_words_per_call ref_f in
          if w <= bound then
            Alcotest.failf "reference %s: %.1f minor words a call, the bound %.0f misses it"
              what w bound)
    [
      ( "Udp.encode 64 B",
        16.,
        (fun () -> ignore (Udp.encode ~src:addr_a ~dst:addr_b ~src_port:1 ~dst_port:2 p64)),
        Some
          (fun () -> ignore (Ref.udp_encode ~src:addr_a ~dst:addr_b ~src_port:1 ~dst_port:2 p64))
      );
      ( "Ipv4.encode 100 B",
        21.,
        (fun () -> ignore (Ipv4.encode ip_h p100)),
        Some (fun () -> ignore (Ref.ipv4_encode ip_h p100)) );
      ("Ipv4.decode 100 B", 36., (fun () -> ignore (Ipv4.decode ip_raw)), None);
      ( "Tcp_seg.encode 1418 B",
        229.,
        (fun () -> ignore (Tcp_seg.encode ~src:addr_a ~dst:addr_b tcp_h p1418)),
        Some (fun () -> ignore (Ref.tcp_encode ~src:addr_a ~dst:addr_b tcp_h p1418)) );
    ]

let () =
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "stop" `Quick test_engine_stop;
        ] );
      ( "addr",
        [
          Alcotest.test_case "errors" `Quick test_addr_errors;
          Alcotest.test_case "to_string" `Quick test_addr_to_string;
          Alcotest.test_case "subnet" `Quick test_addr_subnet;
          qtest prop_addr_roundtrip;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "checksum + truncation" `Quick
            test_ipv4_checksum_detects_corruption;
          Alcotest.test_case "length check" `Quick test_ipv4_total_length_check;
          qtest prop_ipv4_roundtrip;
          qtest prop_ipv4_oracle;
        ] );
      ( "udp",
        [
          Alcotest.test_case "checksum detects" `Quick test_udp_checksum_detects;
          qtest prop_udp_roundtrip;
          qtest prop_udp_oracle;
        ] );
      ( "tcp-seg",
        [
          Alcotest.test_case "seq wraparound" `Quick test_seq_arithmetic_wraps;
          qtest prop_tcp_seg_roundtrip;
          qtest prop_tcp_oracle;
        ] );
      ( "frag",
        [
          Alcotest.test_case "fragment shapes" `Quick test_fragment_shapes;
          Alcotest.test_case "DF raises" `Quick test_fragment_df_raises;
          Alcotest.test_case "reassembly in order" `Quick test_reassembly_in_order;
          Alcotest.test_case "reassembly reversed" `Quick test_reassembly_reversed;
          Alcotest.test_case "timeout discards state" `Quick test_reassembly_timeout;
          Alcotest.test_case "duplicates neither grow nor extend an entry" `Quick
            test_reassembly_duplicates;
          Alcotest.test_case "unfragmented passthrough" `Quick
            test_unfragmented_passthrough;
          qtest prop_reassembly_random_order;
        ] );
      ( "alloc",
        [ Alcotest.test_case "minor words per call" `Quick test_codec_allocation ] );
      ( "medium",
        [
          Alcotest.test_case "tx time" `Quick test_medium_tx_time;
          Alcotest.test_case "accounting" `Quick test_medium_utilization;
        ] );
      ( "host",
        [
          Alcotest.test_case "hooks" `Quick test_host_hooks;
          Alcotest.test_case "burst holds a late Send_error" `Quick
            test_host_burst_send_error;
          Alcotest.test_case "not mine" `Quick test_host_not_mine;
          Alcotest.test_case "no protocol" `Quick test_host_no_protocol;
          Alcotest.test_case "unattached" `Quick test_host_unattached;
          Alcotest.test_case "DF too big" `Quick test_host_df_too_big;
          Alcotest.test_case "fragmentation end-to-end" `Quick
            test_host_fragmentation_end_to_end;
          Alcotest.test_case "clock offset" `Quick test_host_clock_offset;
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
        ] );
      ( "request",
        [
          Alcotest.test_case "duplicate reply absorbed" `Quick
            test_request_duplicate_reply_absorbed;
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
