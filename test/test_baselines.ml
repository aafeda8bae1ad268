(* Tests for the comparison schemes of Section 2: host-pair keying
   (SKIP-like, direct and per-datagram-key variants) and KDC session
   keying — plus the attack-harness primitives. *)

open Fbsr_netsim
open Fbsr_baselines

let check = Alcotest.check

(* Shared scaffolding: a testbed whose hosts run a given baseline. *)

let make_hostpair_site ?(variant = Hostpair.Direct) ?(defer = false) () =
  let tb = Fbsr_fbs_ip.Testbed.create () in
  let a = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"b" ~addr:"10.0.0.2" in
  let authority = Fbsr_fbs_ip.Testbed.authority tb in
  let group = Fbsr_fbs_ip.Testbed.group tb in
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
    let resolve peer k =
      match
        Fbsr_cert.Authority.lookup authority (Fbsr_fbs.Principal.to_string peer)
      with
      | Some c -> k (Ok c)
      | None -> k (Error "unknown")
    in
    (* [defer]: every certificate arrives a round trip later. *)
    let resolver peer k =
      if defer then
        Engine.schedule (Fbsr_fbs_ip.Testbed.engine tb) ~delay:0.002 (fun () ->
            resolve peer k)
      else resolve peer k
    in
    Hostpair.install ~variant ~private_value ~group
      ~ca_public:(Fbsr_cert.Authority.public authority)
      ~resolver host
  in
  let sa = install a and sb = install b in
  (tb, a, b, sa, sb)

(* --- Host-pair keying --- *)

let hostpair_roundtrip variant () =
  let tb, a, b, sa, sb = make_hostpair_site ~variant () in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  List.iter
    (fun m -> Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 m)
    [ "first"; "second" ];
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "delivered" [ "first"; "second" ] (List.rev !got);
  check Alcotest.int "sent" 2 (Hostpair.counters sa).Sealed.sent;
  check Alcotest.int "received" 2 (Hostpair.counters sb).Sealed.received;
  (* Per-datagram keying pays BBS for every datagram; direct pays none. *)
  match variant with
  | Hostpair.Per_datagram ->
      check Alcotest.int "bbs bytes drawn" 16 (Hostpair.bbs_bytes sa)
  | Hostpair.Direct ->
      check Alcotest.int "no bbs" 0 (Hostpair.bbs_bytes sa)

let test_hostpair_direct_roundtrip () = hostpair_roundtrip Hostpair.Direct ()
let test_hostpair_pdk_roundtrip () = hostpair_roundtrip Hostpair.Per_datagram ()

let test_hostpair_tamper_rejected () =
  let tb, a, b, _, sb = make_hostpair_site () in
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  let got = ref 0 in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "genuine";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "genuine delivered" 1 !got;
  let _, frame = List.hd (Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b)) in
  (* Corrupt a body byte (well past the headers). *)
  let corrupted = Attacks.flip_byte ~offset:(String.length frame - 2) frame in
  Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb) corrupted;
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "tampered rejected" 1 !got;
  check Alcotest.bool "drop counted" true ((Hostpair.counters sb).Sealed.dropped >= 1)

(* The flags byte sits outside the MAC.  A captured data datagram
   re-injected with it cleared (0: "not encrypted") must be refused and
   counted as a drop, not passed up with its ciphertext as plaintext.
   [flags_at] is the byte's offset in the IP payload; [data_frame] picks
   the data datagram out of the a->b frames; [counts] reads the
   receiver's (received, dropped). *)
let check_cleared_flags_refused tb a b ~flags_at ~data_frame ~counts =
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "plaintext";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "genuine delivered" [ "plaintext" ] !got;
  let received, dropped = counts () in
  let frame = data_frame (Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b)) in
  let offset = Ipv4.header_size + flags_at in
  check Alcotest.int "captured flags byte" 1 (Char.code frame.[offset]);
  (* [flip_byte] flips the low bit and repairs the IP checksum. *)
  Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb) (Attacks.flip_byte ~offset frame);
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "nothing more delivered" [ "plaintext" ] !got;
  check Alcotest.(pair int int) "counted dropped, not received"
    (received, dropped + 1) (counts ())

let last frames = snd (List.nth frames (List.length frames - 1))

let test_hostpair_cleared_flags_refused () =
  let tb, a, b, _, sb = make_hostpair_site () in
  check_cleared_flags_refused tb a b ~flags_at:1 ~data_frame:last ~counts:(fun () ->
      let c = Hostpair.counters sb in
      (c.Sealed.received, c.Sealed.dropped))

let test_hostpair_cut_and_paste_succeeds () =
  (* The Section 2.2 weakness: under one master key per host pair, a
     protected payload from conversation B can be re-bound into
     conversation A's envelope and still verifies. *)
  let tb, a, b, _, _ = make_hostpair_site () in
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  let seen = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> seen := ("7:" ^ d) :: !seen);
  Udp_stack.listen b ~port:8 (fun ~src:_ ~src_port:_ d -> seen := ("8:" ^ d) :: !seen);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "conversation A";
  Udp_stack.send a ~src_port:8 ~dst:(Host.addr b) ~dst_port:8 "conversation B";
  Fbsr_fbs_ip.Testbed.run tb;
  match Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b) with
  | (_, fa) :: (_, fb) :: _ ->
      let before = List.length !seen in
      (match Attacks.splice_hostpair ~envelope_from:fa ~body_from:fb with
      | Some forged ->
          Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb) forged;
          Fbsr_fbs_ip.Testbed.run tb;
          check Alcotest.bool "splice accepted (the documented weakness)" true
            (List.length !seen > before)
      | None -> Alcotest.fail "could not splice")
  | _ -> Alcotest.fail "frames not captured"

let test_hostpair_mss_reduction () =
  let _, a, _, sa, _ = make_hostpair_site () in
  ignore sa;
  check Alcotest.bool "mss reduced" true (Minitcp.mss_reduction a > 0)

let test_hostpair_unprotect_errors () =
  let _, _, _, sa, _ = make_hostpair_site () in
  let master = "some master key material" in
  (match Hostpair.unprotect sa ~master ~wire:"x" with
  | Error Sealed.Truncated -> ()
  | _ -> Alcotest.fail "truncated accepted");
  match Hostpair.unprotect sa ~master ~wire:(String.make 40 '\x07') with
  | Error Sealed.Bad_variant -> ()
  | _ -> Alcotest.fail "bad variant accepted"

(* --- KDC session keying --- *)

let make_kdc_site () =
  let tb = Fbsr_fbs_ip.Testbed.create () in
  let a = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"b" ~addr:"10.0.0.2" in
  let kdc_host = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"kdc" ~addr:"10.0.0.50" in
  let server = Kdc.Server.install kdc_host in
  let enroll host =
    let key = Kdc.Server.enroll server ~name:(Addr.to_string (Host.addr host)) in
    Kdc.install ~kdc_addr:(Host.addr kdc_host) ~shared_key:key host
  in
  let sa = enroll a and sb = enroll b in
  (tb, a, b, server, sa, sb)

let test_kdc_roundtrip () =
  let tb, a, b, server, sa, sb = make_kdc_site () in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  List.iter
    (fun m -> Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 m)
    [ "one"; "two"; "three" ];
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "all delivered in order" [ "one"; "two"; "three" ]
    (List.rev !got);
  (* The defining costs of session keying (Section 2.1): an explicit setup
     exchange before the first datagram, and hard state at both ends. *)
  check Alcotest.int "one KDC request for the whole session" 1
    (Kdc.kdc_requests sa);
  check Alcotest.int "one ticket issued" 1 (Kdc.Server.tickets_issued server);
  check Alcotest.int "hard state at sender" 1 (Kdc.sessions_out sa);
  check Alcotest.int "hard state at receiver" 1 (Kdc.sessions_in sb)

let test_kdc_unknown_destination () =
  let tb, a, _, _, sa, _ = make_kdc_site () in
  (* 10.0.0.77 is not enrolled with the KDC: setup fails, nothing leaves. *)
  Udp_stack.send a ~src_port:7 ~dst:(Addr.of_string "10.0.0.77") ~dst_port:7 "void";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "nothing sent" 0 (Kdc.counters sa).Sealed.sent

let test_kdc_ticket_corruption_rejected () =
  let tb, a, b, _, _, sb = make_kdc_site () in
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  let got = ref 0 in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "msg";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "delivered" 1 !got;
  let _, frame = List.hd (Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b)) in
  let corrupted = Attacks.flip_byte ~offset:(String.length frame - 3) frame in
  Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb) corrupted;
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "corrupt rejected" 1 !got;
  check Alcotest.bool "drop counted" true ((Kdc.counters sb).Sealed.dropped >= 1)

let test_kdc_cleared_flags_refused () =
  let tb, a, b, _, _, sb = make_kdc_site () in
  check_cleared_flags_refused tb a b ~flags_at:0 ~data_frame:last ~counts:(fun () ->
      let c = Kdc.counters sb in
      (c.Sealed.received, c.Sealed.dropped))

(* A ticket's session is kept only once a datagram under it verifies.
   [b] runs no KDC client while [a]'s first datagram to it is captured,
   so [b] has never seen its ticket.  That datagram re-injected with a
   MAC byte flipped carries a ticket that decrypts and a MAC that does
   not verify: refused, and its session not kept.  The genuine datagram
   then opens and keeps it. *)
let test_kdc_ticket_kept_after_verify () =
  let tb = Fbsr_fbs_ip.Testbed.create () in
  let add name addr = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name ~addr in
  let a = add "a" "10.0.0.1" and b = add "b" "10.0.0.2" in
  let kdc_host = add "kdc" "10.0.0.50" in
  let server = Kdc.Server.install kdc_host in
  let shared_key host = Kdc.Server.enroll server ~name:(Addr.to_string (Host.addr host)) in
  let kdc_addr = Host.addr kdc_host in
  let (_ : Kdc.t) = Kdc.install ~kdc_addr ~shared_key:(shared_key a) a in
  let key_b = shared_key b in
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "ticketed";
  Fbsr_fbs_ip.Testbed.run tb;
  let frame = last (Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b)) in
  let sb = Kdc.install ~kdc_addr ~shared_key:key_b b in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  (* u8 flags | u16 ticket_len | ticket | 8B iv | 16B mac *)
  let byte i = Char.code frame.[Ipv4.header_size + i] in
  let ticket_len = (byte 1 lsl 8) lor byte 2 in
  let mac_at = Ipv4.header_size + 3 + ticket_len + 8 in
  Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb) (Attacks.flip_byte ~offset:mac_at frame);
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "bad MAC refused" 1 (Kdc.counters sb).Sealed.dropped;
  check Alcotest.int "no session kept" 0 (Kdc.sessions_in sb);
  Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb) frame;
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "genuine delivered" [ "ticketed" ] !got;
  check Alcotest.int "its session kept" 1 (Kdc.sessions_in sb)

(* --- Photuris-style session keying (no third party) --- *)

let make_photuris_site ?faults () =
  let tb = Fbsr_fbs_ip.Testbed.create ?faults () in
  let a = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"b" ~addr:"10.0.0.2" in
  let group = Fbsr_fbs_ip.Testbed.group tb in
  let sa = Photuris.install ~group a in
  let sb = Photuris.install ~group b in
  (tb, a, b, sa, sb)

let test_photuris_roundtrip () =
  let tb, a, b, sa, sb = make_photuris_site () in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  List.iter
    (fun m -> Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 m)
    [ "one"; "two"; "three" ];
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "in order" [ "one"; "two"; "three" ] (List.rev !got);
  (* The Section 2.1 costs, quantified: *)
  let ca = Photuris.setup sa in
  check Alcotest.int "four setup messages (2 RTT) for one peer" 4
    (ca.Photuris.setup_messages + (Photuris.setup sb).Photuris.setup_messages);
  check Alcotest.int "hard state at initiator" 1 (Photuris.sessions_out sa);
  check Alcotest.int "hard state at responder" 1 (Photuris.sessions_in sb);
  check Alcotest.bool "ephemeral modexps spent" true (ca.Photuris.modexps >= 2)

let test_photuris_tamper_rejected () =
  let tb, a, b, _, sb = make_photuris_site () in
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  let got = ref 0 in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "genuine";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "delivered" 1 !got;
  (* Corrupt the protected data packet: it is the last a->b frame. *)
  let frames = Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b) in
  let _, data_frame = List.nth frames (List.length frames - 1) in
  Attacks.inject (Fbsr_fbs_ip.Testbed.medium tb)
    (Attacks.flip_byte ~offset:(String.length data_frame - 2) data_frame);
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "tampered rejected" 1 !got;
  check Alcotest.bool "drop counted" true ((Photuris.counters sb).Sealed.dropped >= 1)

let test_photuris_cleared_flags_refused () =
  let tb, a, b, _, sb = make_photuris_site () in
  check_cleared_flags_refused tb a b ~flags_at:0 ~data_frame:last ~counts:(fun () ->
      let c = Photuris.counters sb in
      (c.Sealed.received, c.Sealed.dropped))

(* A PHK1 must return the cookie the responder's PHC2 gave the sender's
   address and cookie.  Fifty PHK1s from a third host, each with a fresh
   initiator cookie and a made-up responder cookie and no PHC1 before
   them, cost the responder no modexp and leave no association. *)
let test_photuris_forged_cookie_ignored () =
  let tb, _, b, _, sb = make_photuris_site () in
  let m = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"m" ~addr:"10.0.0.66" in
  let group = Fbsr_fbs_ip.Testbed.group tb in
  let x = Fbsr_crypto.Dh.gen_private group (Fbsr_util.Rng.create 7) in
  let gx = Fbsr_crypto.Dh.public_to_bytes group (Fbsr_crypto.Dh.public group x) in
  (* tag | (u16 length | part)* *)
  let part p =
    let n = String.length p in
    Printf.sprintf "%c%c%s" (Char.chr (n lsr 8)) (Char.chr (n land 0xff)) p
  in
  for i = 1 to 50 do
    Udp_stack.send m ~src_port:468 ~dst:(Host.addr b) ~dst_port:468
      (String.concat ""
         [ "PHK1"; part (Printf.sprintf "c%07d" i); part "forged!!"; part gx ])
  done;
  Fbsr_fbs_ip.Testbed.run tb;
  let setup = Photuris.setup sb in
  check Alcotest.int "no modexp" 0 setup.Photuris.modexps;
  check Alcotest.int "no handshake" 0 setup.Photuris.handshakes;
  check Alcotest.int "no association" 0 (Photuris.sessions_in sb)

(* A PHK1 that returns its own cookie but carries a g^x outside [2, p)
   (one zero byte) is refused before any modexp: the run goes on, no
   association is left, and a genuine handshake afterwards completes. *)
let test_photuris_out_of_range_value_refused () =
  let tb, a, b, _, sb = make_photuris_site () in
  let m = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"m" ~addr:"10.0.0.66" in
  (* tag | (u16 length | part)* *)
  let part p =
    let n = String.length p in
    Printf.sprintf "%c%c%s" (Char.chr (n lsr 8)) (Char.chr (n land 0xff)) p
  in
  let cookie_s = ref None in
  Udp_stack.listen m ~port:468 (fun ~src:_ ~src_port:_ d ->
      (* "PHC2" | cookie_c | cookie_s *)
      if String.length d >= 6 && String.sub d 0 4 = "PHC2" then begin
        let n = (Char.code d.[4] lsl 8) lor Char.code d.[5] in
        let at = 6 + n in
        let k = (Char.code d.[at] lsl 8) lor Char.code d.[at + 1] in
        cookie_s := Some (String.sub d (at + 2) k)
      end);
  let cookie_c = "mcookie1" in
  Udp_stack.send m ~src_port:468 ~dst:(Host.addr b) ~dst_port:468
    (String.concat "" [ "PHC1"; part cookie_c ]);
  Fbsr_fbs_ip.Testbed.run tb;
  let cookie_s =
    match !cookie_s with Some c -> c | None -> Alcotest.fail "no PHC2 for the third host"
  in
  Udp_stack.send m ~src_port:468 ~dst:(Host.addr b) ~dst_port:468
    (String.concat "" [ "PHK1"; part cookie_c; part cookie_s; part "\000" ]);
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "no modexp" 0 (Photuris.setup sb).Photuris.modexps;
  check Alcotest.int "no association" 0 (Photuris.sessions_in sb);
  let got = ref 0 in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "genuine";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "genuine datagram delivered" 1 !got;
  check Alcotest.int "one handshake" 1 (Photuris.setup sb).Photuris.handshakes

(* Every setup message arrives twice: the initiator keeps its first x
   and the responder answers a repeated PHK1 with the same PHK2, so both
   ends derive one session key. *)
let test_photuris_duplicated_messages () =
  let tb, a, b, _, sb =
    make_photuris_site ~faults:{ Link.perfect with Link.duplicate = 1.0 } ()
  in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  List.iter
    (fun m -> Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 m)
    [ "one"; "two"; "three" ];
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "every datagram delivered" [ "one"; "three"; "two" ]
    (List.sort_uniq compare !got);
  check Alcotest.int "no verification failure" 0 (Photuris.counters sb).Sealed.dropped;
  check Alcotest.int "one association at the responder" 1
    (Photuris.setup sb).Photuris.handshakes

let test_photuris_no_long_term_secret () =
  (* The Section 6.1 contrast: ephemeral-DH session keying has no long-term
     secret whose compromise exposes traffic; FBS (zero-message) cannot
     avoid one.  This is the trade the paper concedes. *)
  let _, _, _, sa, _ = make_photuris_site () in
  check Alcotest.bool "no long-term secrets" false (Photuris.has_long_term_secrets sa)

(* --- A datagram that waits for its key is not a hook drop --- *)

(* A cold datagram from [a] to [b] waits for keying and is delivered:
   neither host counts a hook drop.  A datagram whose keying fails (its
   peer is unknown or absent) is one hook drop on [a]. *)
let check_waiting_is_no_drop tb a b =
  let drops host = (Host.stats host).Host.drops_hook in
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "cold";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "delivered" [ "cold" ] !got;
  check Alcotest.int "no hook drop on the sender" 0 (drops a);
  check Alcotest.int "no hook drop on the receiver" 0 (drops b);
  Udp_stack.send a ~src_port:7 ~dst:(Addr.of_string "10.0.0.77") ~dst_port:7 "doomed";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "a keying failure is one hook drop" 1 (drops a)

let test_hostpair_waiting_is_no_drop () =
  let tb, a, b, _, _ = make_hostpair_site ~defer:true () in
  check_waiting_is_no_drop tb a b

let test_kdc_waiting_is_no_drop () =
  let tb, a, b, _, _, _ = make_kdc_site () in
  check_waiting_is_no_drop tb a b

(* A Photuris handshake to an absent peer fails by its last timeout. *)
let test_photuris_waiting_is_no_drop () =
  let tb, a, b, _, _ = make_photuris_site () in
  check_waiting_is_no_drop tb a b

(* --- A lost setup message is retransmitted --- *)

let drop_everything tb =
  Link.create
    ~profile:{ Link.perfect with Link.drop = 1.0 }
    (Fbsr_fbs_ip.Testbed.engine tb)

(* The first setup message leaves [a] through an egress link that drops
   everything; the link is then removed and a second datagram joins the
   first.  A retransmission completes the setup and both are delivered. *)
let check_setup_recovers tb a b =
  let got = ref [] in
  Udp_stack.listen b ~port:7 (fun ~src:_ ~src_port:_ d -> got := d :: !got);
  Host.set_link a (drop_everything tb);
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "first";
  Fbsr_fbs_ip.Testbed.run ~until:1.0 tb;
  Host.clear_link a;
  Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 "second";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.(list string) "both delivered" [ "first"; "second" ] (List.rev !got);
  check Alcotest.int "no hook drop" 0 (Host.stats a).Host.drops_hook

(* With the link dropping for good, both parked datagrams wait until the
   last attempt's timeout, 2 + 4 + 8 s +- 10%, and are then dropped:
   counted by the baseline ([dropped]) and as hook drops. *)
let check_setup_gives_up tb a b ~dropped =
  let hook_drops () = (Host.stats a).Host.drops_hook in
  Host.set_link a (drop_everything tb);
  List.iter
    (fun m -> Udp_stack.send a ~src_port:7 ~dst:(Host.addr b) ~dst_port:7 m)
    [ "first"; "second" ];
  Fbsr_fbs_ip.Testbed.run ~until:12.5 tb;
  check Alcotest.int "parked before the deadline" 0 (dropped ());
  check Alcotest.int "no hook drop before the deadline" 0 (hook_drops ());
  Fbsr_fbs_ip.Testbed.run ~until:15.4 tb;
  check Alcotest.int "both dropped by the deadline" 2 (dropped ());
  check Alcotest.int "both counted as hook drops" 2 (hook_drops ())

let test_kdc_lost_request_recovers () =
  let tb, a, b, _, sa, _ = make_kdc_site () in
  check_setup_recovers tb a b;
  check Alcotest.int "the lost request and its retransmission" 2
    (Kdc.kdc_requests sa)

let test_kdc_lost_request_gives_up () =
  let tb, a, b, _, sa, _ = make_kdc_site () in
  check_setup_gives_up tb a b ~dropped:(fun () -> (Kdc.counters sa).Sealed.dropped);
  check Alcotest.int "three requests" 3 (Kdc.kdc_requests sa)

let test_photuris_lost_setup_recovers () =
  let tb, a, b, sa, _ = make_photuris_site () in
  check_setup_recovers tb a b;
  check Alcotest.int "PHC1 twice, then PHK1" 3
    (Photuris.setup sa).Photuris.setup_messages

let test_photuris_lost_setup_gives_up () =
  let tb, a, b, sa, _ = make_photuris_site () in
  check_setup_gives_up tb a b ~dropped:(fun () ->
      (Photuris.counters sa).Sealed.dropped);
  check Alcotest.int "three PHC1s" 3 (Photuris.setup sa).Photuris.setup_messages

(* --- Wire pins --- *)

(* A fixed exchange: [a] sends datagrams of 3, 100 and 1000 bytes to
   [b]'s echo port and [b] echoes each.  Every frame on the segment,
   setup messages included, is captured.  The pin is the frame count,
   their total length and the MD5 of the length-prefixed frames in
   capture order: a change to a baseline's wire format, or to the bytes
   it draws for keys, IVs and cookies, changes it. *)
let wire_pin tb a b =
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  Udp_stack.listen b ~port:7 (fun ~src ~src_port d ->
      Udp_stack.send b ~src_port:7 ~dst:src ~dst_port:src_port d);
  let echoed = ref 0 in
  Udp_stack.listen a ~port:5 (fun ~src:_ ~src_port:_ _ -> incr echoed);
  List.iter
    (fun n ->
      Udp_stack.send a ~src_port:5 ~dst:(Host.addr b) ~dst_port:7
        (String.init n (fun i -> Char.chr (i land 0xff))))
    [ 3; 100; 1000 ];
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "every datagram echoed" 3 !echoed;
  let frames = List.map snd (Attacks.frames tap) in
  Printf.sprintf "%d frames, %d bytes, md5 %s" (List.length frames)
    (List.fold_left (fun n f -> n + String.length f) 0 frames)
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (List.map (fun f -> Printf.sprintf "%04x%s" (String.length f) f) frames))))

let test_wire_pins () =
  let hostpair variant =
    let tb, a, b, _, _ = make_hostpair_site ~variant () in
    wire_pin tb a b
  in
  let kdc =
    let tb, a, b, _, _, _ = make_kdc_site () in
    wire_pin tb a b
  in
  let photuris =
    let tb, a, b, _, _ = make_photuris_site () in
    wire_pin tb a b
  in
  check Alcotest.(list string) "captured wires"
    [
      "hostpair direct: 6 frames, 2564 bytes, md5 59b280cf49d462ec017f2581d11064bf";
      "hostpair per-datagram: 6 frames, 2612 bytes, md5 6406be37eb9a0ee67f4cf35063297b6f";
      "kdc: 10 frames, 3046 bytes, md5 dd425b992a0161e5eb209d10fb8eea2c";
      "photuris: 14 frames, 3022 bytes, md5 1fd1c6528cad7af738eb350b30aef5de";
    ]
    [
      "hostpair direct: " ^ hostpair Hostpair.Direct;
      "hostpair per-datagram: " ^ hostpair Hostpair.Per_datagram;
      "kdc: " ^ kdc;
      "photuris: " ^ photuris;
    ]

(* --- Attack harness primitives --- *)

let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')

let prop_baselines_never_crash_on_garbage =
  (* The baselines' unprotect paths must be as robust as FBS's. *)
  let _, _, _, hp, _ = make_hostpair_site () in
  let _, _, _, _, _, kdc = make_kdc_site () in
  let _, _, _, ph, _ = make_photuris_site () in
  QCheck.Test.make ~name:"baseline unprotect(garbage) never raises" ~count:200
    arbitrary_bytes (fun garbage ->
      let ok1 =
        match Hostpair.unprotect hp ~master:"some master key bytes" ~wire:garbage with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      let ok2 =
        match Kdc.unprotect kdc ~now:0.0 ~wire:garbage with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      let ok3 =
        match Photuris.unprotect ph ~wire:garbage with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      ok1 && ok2 && ok3)

let test_attacks_tap_and_filter () =
  let tb = Fbsr_fbs_ip.Testbed.create () in
  let a = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Fbsr_fbs_ip.Testbed.add_plain_host tb ~name:"b" ~addr:"10.0.0.2" in
  let tap = Attacks.tap (Fbsr_fbs_ip.Testbed.medium tb) in
  Udp_stack.listen b ~port:7 (fun ~src ~src_port d ->
      Udp_stack.send b ~src_port:7 ~dst:src ~dst_port:src_port d);
  Udp_stack.listen a ~port:5 (fun ~src:_ ~src_port:_ _ -> ());
  Udp_stack.send a ~src_port:5 ~dst:(Host.addr b) ~dst_port:7 "ping";
  Fbsr_fbs_ip.Testbed.run tb;
  check Alcotest.int "both directions captured" 2 (List.length (Attacks.frames tap));
  check Alcotest.int "a->b filter" 1
    (List.length (Attacks.between tap ~src:(Host.addr a) ~dst:(Host.addr b)));
  check Alcotest.int "b->a filter" 1
    (List.length (Attacks.between tap ~src:(Host.addr b) ~dst:(Host.addr a)));
  Attacks.clear tap;
  check Alcotest.int "cleared" 0 (List.length (Attacks.frames tap))

let test_attacks_flip_byte_keeps_ip_valid () =
  let h =
    Ipv4.make ~protocol:17 ~src:(Addr.of_string "1.2.3.4") ~dst:(Addr.of_string "5.6.7.8")
      ~payload_length:10 ()
  in
  let raw = Ipv4.encode h "0123456789" in
  let flipped = Attacks.flip_byte ~offset:25 raw in
  (* The IP header must still parse (checksum repaired); the payload byte
     differs. *)
  let _, payload = Ipv4.decode flipped in
  check Alcotest.bool "payload changed" true (payload <> "0123456789")

let () =
  Alcotest.run "baselines"
    [
      ( "hostpair",
        [
          Alcotest.test_case "direct roundtrip" `Quick test_hostpair_direct_roundtrip;
          Alcotest.test_case "per-datagram-key roundtrip" `Quick
            test_hostpair_pdk_roundtrip;
          Alcotest.test_case "tamper rejected" `Quick test_hostpair_tamper_rejected;
          Alcotest.test_case "cleared flags byte refused" `Quick
            test_hostpair_cleared_flags_refused;
          Alcotest.test_case "cut-and-paste succeeds (Section 2.2)" `Quick
            test_hostpair_cut_and_paste_succeeds;
          Alcotest.test_case "mss reduction" `Quick test_hostpair_mss_reduction;
          Alcotest.test_case "unprotect errors" `Quick test_hostpair_unprotect_errors;
          Alcotest.test_case "waiting for a key is no hook drop" `Quick
            test_hostpair_waiting_is_no_drop;
        ] );
      ( "kdc",
        [
          Alcotest.test_case "session roundtrip" `Quick test_kdc_roundtrip;
          Alcotest.test_case "unknown destination" `Quick test_kdc_unknown_destination;
          Alcotest.test_case "cleared flags byte refused" `Quick
            test_kdc_cleared_flags_refused;
          Alcotest.test_case "corruption rejected" `Quick
            test_kdc_ticket_corruption_rejected;
          Alcotest.test_case "ticket kept only after its datagram verifies" `Quick
            test_kdc_ticket_kept_after_verify;
          Alcotest.test_case "waiting for a session is no hook drop" `Quick
            test_kdc_waiting_is_no_drop;
          Alcotest.test_case "lost request is retransmitted" `Quick
            test_kdc_lost_request_recovers;
          Alcotest.test_case "dead network drops by the deadline" `Quick
            test_kdc_lost_request_gives_up;
        ] );
      ( "photuris",
        [
          Alcotest.test_case "session roundtrip" `Quick test_photuris_roundtrip;
          Alcotest.test_case "tamper rejected" `Quick test_photuris_tamper_rejected;
          Alcotest.test_case "cleared flags byte refused" `Quick
            test_photuris_cleared_flags_refused;
          Alcotest.test_case "no long-term secret (PFS)" `Quick
            test_photuris_no_long_term_secret;
          Alcotest.test_case "waiting for a handshake is no hook drop" `Quick
            test_photuris_waiting_is_no_drop;
          Alcotest.test_case "handshake survives duplicated messages" `Quick
            test_photuris_duplicated_messages;
          Alcotest.test_case "PHK1 with a forged cookie ignored" `Quick
            test_photuris_forged_cookie_ignored;
          Alcotest.test_case "PHK1 with an out-of-range g^x refused" `Quick
            test_photuris_out_of_range_value_refused;
          Alcotest.test_case "lost setup message is retransmitted" `Quick
            test_photuris_lost_setup_recovers;
          Alcotest.test_case "dead network drops by the deadline" `Quick
            test_photuris_lost_setup_gives_up;
        ] );
      ( "wire",
        [ Alcotest.test_case "byte pins of a fixed exchange" `Quick test_wire_pins ] );
      ( "attack-harness",
        [
          Alcotest.test_case "tap + filters" `Quick test_attacks_tap_and_filter;
          Alcotest.test_case "flip_byte keeps IP valid" `Quick
            test_attacks_flip_byte_keeps_ip_valid;
          QCheck_alcotest.to_alcotest prop_baselines_never_crash_on_garbage;
        ] );
    ]
