(* Adversarial-network suite: the fault-injection link layer itself, and
   FBS's behaviour over it.

   The properties under test are the paper's soft-state robustness claims
   (Sections 5.3 and 6): no corrupted or replayed datagram is ever
   accepted, and every loss is recovered by retransmission above and
   recomputation below — never by hidden hard state. *)

open Fbsr_netsim
open Fbsr_fbs_ip

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* The Link stage in isolation.                                        *)
(* ------------------------------------------------------------------ *)

let drive ~seed ~profile n =
  let engine = Engine.create () in
  let link = Link.create ~seed ~profile engine in
  let delivered = ref [] in
  for i = 0 to n - 1 do
    Link.transmit link
      ~deliver:(fun raw -> delivered := raw :: !delivered)
      (Printf.sprintf "frame-%04d" i)
  done;
  Engine.run engine;
  (Link.stats link, List.rev !delivered)

let chaos =
  {
    Link.drop = 0.2;
    duplicate = 0.1;
    reorder = 0.3;
    reorder_delay = 0.05;
    truncate = 0.05;
    corrupt = 0.1;
  }

let test_link_determinism () =
  let s1, d1 = drive ~seed:99 ~profile:chaos 500 in
  let s2, d2 = drive ~seed:99 ~profile:chaos 500 in
  check (Alcotest.list Alcotest.string) "same seed, same delivery sequence" d1 d2;
  check Alcotest.int "same drops" s1.Link.dropped s2.Link.dropped;
  check Alcotest.int "same duplicates" s1.Link.duplicated s2.Link.duplicated;
  check Alcotest.int "same corruptions" s1.Link.corrupted s2.Link.corrupted;
  let _, d3 = drive ~seed:100 ~profile:chaos 500 in
  check Alcotest.bool "different seed, different run" true (d1 <> d3)

let test_link_perfect_is_identity () =
  let stats, delivered = drive ~seed:1 ~profile:Link.perfect 100 in
  check Alcotest.int "all delivered" 100 (List.length delivered);
  check Alcotest.int "none dropped" 0 stats.Link.dropped;
  check
    (Alcotest.list Alcotest.string)
    "in order, unmodified"
    (List.init 100 (Printf.sprintf "frame-%04d"))
    delivered

let test_link_metrics_probes () =
  let engine = Engine.create () in
  let link = Link.create ~seed:8 ~profile:chaos engine in
  let m = Fbsr_util.Metrics.create () in
  Link.register_metrics link (Fbsr_util.Metrics.sub m "netsim.link");
  for i = 0 to 199 do
    Link.transmit link ~deliver:ignore (Printf.sprintf "frame-%04d" i)
  done;
  Engine.run engine;
  let stats = Link.stats link in
  let get n = Fbsr_util.Metrics.get m ("netsim.link." ^ n) in
  check Alcotest.int "offered via registry" stats.Link.offered (get "offered");
  check Alcotest.int "delivered via registry" stats.Link.delivered
    (get "delivered");
  check Alcotest.int "dropped via registry" stats.Link.dropped (get "dropped");
  check Alcotest.int "corrupted via registry" stats.Link.corrupted
    (get "corrupted")

let test_link_drop_rate () =
  let profile = { Link.perfect with Link.drop = 0.3 } in
  let stats, delivered = drive ~seed:4 ~profile 2000 in
  check Alcotest.int "offered" 2000 stats.Link.offered;
  check Alcotest.int "conservation" 2000 (stats.Link.delivered + stats.Link.dropped);
  check Alcotest.int "delivered list matches stats" stats.Link.delivered
    (List.length delivered);
  check Alcotest.bool "drop rate in the right ballpark" true
    (stats.Link.dropped > 500 && stats.Link.dropped < 700)

let test_link_reorder () =
  let profile = { Link.perfect with Link.reorder = 1.0; reorder_delay = 0.5 } in
  let stats, delivered = drive ~seed:7 ~profile 50 in
  check Alcotest.int "nothing lost" 50 (List.length delivered);
  check Alcotest.int "all held back" 50 stats.Link.reordered;
  check Alcotest.bool "order actually changed" true
    (delivered <> List.sort compare delivered);
  check
    (Alcotest.list Alcotest.string)
    "a permutation, not a mutation"
    (List.init 50 (Printf.sprintf "frame-%04d"))
    (List.sort compare delivered)

let test_link_truncate () =
  let profile = { Link.perfect with Link.truncate = 1.0 } in
  let _, delivered = drive ~seed:3 ~profile 100 in
  List.iter
    (fun frame ->
      check Alcotest.bool "proper prefix" true (String.length frame < 10);
      check Alcotest.string "prefix content intact"
        (String.sub "frame-" 0 (min 6 (String.length frame)))
        (String.sub frame 0 (min 6 (String.length frame))))
    delivered

let test_link_corrupt_flips_one_bit () =
  let profile = { Link.perfect with Link.corrupt = 1.0 } in
  let _, delivered = drive ~seed:5 ~profile 100 in
  check Alcotest.int "nothing lost" 100 (List.length delivered);
  List.iteri
    (fun i frame ->
      let original = Printf.sprintf "frame-%04d" i in
      check Alcotest.int "same length" (String.length original) (String.length frame);
      let flipped =
        let bits = ref 0 in
        String.iteri
          (fun j c ->
            let x = Char.code c lxor Char.code original.[j] in
            for b = 0 to 7 do
              if x land (1 lsl b) <> 0 then incr bits
            done)
          frame;
        !bits
      in
      check Alcotest.int "exactly one bit flipped" 1 flipped)
    delivered

let test_link_profile_validation () =
  let engine = Engine.create () in
  let expect_invalid profile =
    match Link.create ~profile engine with
    | (_ : Link.t) -> Alcotest.fail "nonsense profile accepted"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid { Link.perfect with Link.drop = 1.5 };
  expect_invalid { Link.perfect with Link.corrupt = -0.1 };
  expect_invalid { Link.perfect with Link.reorder_delay = -1.0 };
  let link = Link.create engine in
  match Link.set_profile link { Link.perfect with Link.duplicate = 2.0 } with
  | () -> Alcotest.fail "set_profile accepted nonsense"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* FBS end to end over faulty links.                                   *)
(* ------------------------------------------------------------------ *)

let test_no_forgery_under_corruption () =
  (* 5% bit flips: heavy enough that some flips are guaranteed to land
     inside FBS-protected bytes, not just the IP header. *)
  let faults = { Link.perfect with Link.corrupt = 0.05 } in
  let r = Fbsr_experiments.Faults.run ~seed:5 ~messages:120 ~faults () in
  check Alcotest.int "zero forgeries reach the application" 0 r.Fbsr_experiments.Faults.forgeries_accepted;
  check Alcotest.bool "corruption actually happened on the wire" true
    (r.Fbsr_experiments.Faults.link.Link.corrupted > 0);
  check Alcotest.bool "and was caught by the security layer" true
    (r.Fbsr_experiments.Faults.mac_failures + r.Fbsr_experiments.Faults.header_failures
       + r.Fbsr_experiments.Faults.decrypt_failures
     > 0);
  check Alcotest.int "and every message still got through (retries)"
    r.Fbsr_experiments.Faults.offered r.Fbsr_experiments.Faults.accepted

let test_loss_recovered_by_retransmission () =
  let r =
    Fbsr_experiments.Faults.run ~seed:5 ~messages:120
      ~faults:Fbsr_experiments.Faults.lossy ()
  in
  check Alcotest.bool ">= 99% eventual acceptance" true
    (Fbsr_experiments.Faults.acceptance_rate r >= 0.99);
  check Alcotest.bool "loss actually happened" true
    (r.Fbsr_experiments.Faults.link.Link.dropped > 0);
  check Alcotest.bool "recovery came from retransmissions" true
    (r.Fbsr_experiments.Faults.transmissions > r.Fbsr_experiments.Faults.offered);
  check Alcotest.int "no forgeries" 0 r.Fbsr_experiments.Faults.forgeries_accepted

let test_hostile_network_invariants () =
  let r =
    Fbsr_experiments.Faults.run ~seed:23 ~messages:120
      ~faults:Fbsr_experiments.Faults.hostile ()
  in
  check Alcotest.int "zero forgeries under combined faults" 0
    r.Fbsr_experiments.Faults.forgeries_accepted;
  check Alcotest.bool "acceptance still >= 99%" true
    (Fbsr_experiments.Faults.acceptance_rate r >= 0.99)

(* Three views of the same link records must agree: the aggregated
   [Testbed.link_stats], the site-wide "netsim.link.*" probe sums, and the
   sum of every "host.<addr>.netsim.link.*" view. *)
let test_link_totals_agree () =
  let metrics = Fbsr_util.Metrics.create () in
  let r =
    Fbsr_experiments.Faults.run ~seed:23 ~messages:60
      ~faults:Fbsr_experiments.Faults.hostile ~metrics ()
  in
  let l = r.Fbsr_experiments.Faults.link in
  let names = Fbsr_util.Metrics.names metrics in
  let host_views field =
    let suffix = ".netsim.link." ^ field in
    List.filter
      (fun n -> String.starts_with ~prefix:"host." n && String.ends_with ~suffix n)
      names
  in
  List.iter
    (fun (field, v) ->
      check Alcotest.int ("site-wide " ^ field) v
        (Fbsr_util.Metrics.get metrics ("netsim.link." ^ field));
      check Alcotest.int ("per-host sum " ^ field) v
        (List.fold_left
           (fun acc n -> acc + Fbsr_util.Metrics.get metrics n)
           0 (host_views field)))
    [
      ("offered", l.Link.offered);
      ("delivered", l.Link.delivered);
      ("dropped", l.Link.dropped);
      ("duplicated", l.Link.duplicated);
      ("reordered", l.Link.reordered);
      ("truncated", l.Link.truncated);
      ("corrupted", l.Link.corrupted);
    ];
  check Alcotest.int "one view per host (key server, sender, receiver)" 3
    (List.length (host_views "offered"));
  check Alcotest.bool "the profile actually injected faults" true
    (l.Link.dropped > 0 && l.Link.reordered > 0)

(* A sniffing adversary replays every captured frame verbatim; with
   strict replay suppression the application sees nothing new. *)
let test_replayed_capture_rejected () =
  let config = Stack.default_config ~strict_replay:true () in
  let metrics = Fbsr_util.Metrics.create () in
  let tb = Testbed.create ~seed:3 ~config ~metrics ~span_capacity:4096 () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let delivered = ref [] in
  Udp_stack.listen b.Testbed.host ~port:7000 (fun ~src:_ ~src_port:_ msg ->
      delivered := msg :: !delivered);
  let captured = ref [] in
  Medium.add_sniffer (Testbed.medium tb) (fun _time raw -> captured := raw :: !captured);
  for i = 1 to 5 do
    Udp_stack.send a.Testbed.host ~src_port:6000 ~dst:(Host.addr b.Testbed.host)
      ~dst_port:7000 (Printf.sprintf "payment %d" i)
  done;
  Testbed.run tb;
  check Alcotest.int "all delivered once" 5 (List.length !delivered);
  (* Keep only frames addressed to b (the tap also saw MKD traffic). *)
  let to_b =
    List.filter
      (fun raw ->
        match Ipv4.decode raw with
        | h, _ -> Addr.equal h.Ipv4.dst (Host.addr b.Testbed.host)
        | exception Ipv4.Bad_packet _ -> false)
      !captured
  in
  check Alcotest.bool "captured the data frames" true (List.length to_b >= 5);
  List.iter (fun raw -> Medium.transmit (Testbed.medium tb) ~dst:(Host.addr b.Testbed.host) raw) to_b;
  Testbed.run tb;
  check Alcotest.int "replay delivered nothing new" 5 (List.length !delivered);
  (* The rejections are visible both per host and in the aggregate view of
     the shared registry. *)
  check Alcotest.bool "replays rejected as duplicates (per-host metric)" true
    (Fbsr_util.Metrics.get metrics "host.10.0.0.2.fbs.engine.drops.duplicate"
    >= 5);
  check Alcotest.bool "aggregate view agrees" true
    (Fbsr_util.Metrics.get metrics "fbs.engine.drops.duplicate" >= 5);
  (* Every duplicate drop ends its chain in exactly one terminal span. *)
  let duplicate_terminals =
    List.length
      (List.filter
         (fun s -> s.Fbsr_util.Span.outcome = "drop:duplicate")
         (Testbed.collect_spans tb))
  in
  check Alcotest.int "one drop:duplicate terminal per duplicate drop"
    (Fbsr_util.Metrics.get metrics "fbs.engine.drops.duplicate")
    duplicate_terminals

(* Wipe every piece of soft state mid-conversation — flow-key caches,
   master-key cache, certificate cache — and show the conversation
   continues: keys are recomputed (counted as recoveries), certificates
   are refetched, and no datagram is lost to the amnesia. *)
let test_soft_state_wipe_recovers () =
  let metrics = Fbsr_util.Metrics.create () in
  let tb = Testbed.create ~seed:9 ~metrics () in
  let a = Testbed.add_host tb ~name:"a" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"b" ~addr:"10.0.0.2" in
  let delivered = ref 0 in
  Udp_stack.listen b.Testbed.host ~port:7000 (fun ~src:_ ~src_port:_ _ ->
      incr delivered);
  let send i =
    Udp_stack.send a.Testbed.host ~src_port:6000 ~dst:(Host.addr b.Testbed.host)
      ~dst_port:7000 (Printf.sprintf "msg %d" i)
  in
  for i = 1 to 3 do send i done;
  Testbed.run tb;
  check Alcotest.int "first batch delivered" 3 !delivered;
  let wipe (node : Testbed.node) =
    let e = Stack.engine node.Testbed.stack in
    Fbsr_fbs.Cache.clear (Fbsr_fbs.Engine.tfkc e);
    Fbsr_fbs.Cache.clear (Fbsr_fbs.Engine.rfkc e);
    let keying = Fbsr_fbs.Engine.keying e in
    Fbsr_fbs.Cache.clear (Fbsr_fbs.Keying.pvc keying);
    Fbsr_fbs.Cache.clear (Fbsr_fbs.Keying.mkc keying)
  in
  wipe a;
  wipe b;
  (* "fbs_ip.mkd.fetches" carries one probe per host, so reading it from
     the shared registry sums both MKDs. *)
  let fetches_before = Fbsr_util.Metrics.get metrics "fbs_ip.mkd.fetches" in
  for i = 4 to 6 do send i done;
  Testbed.run tb;
  check Alcotest.int "second batch delivered despite the wipe" 6 !delivered;
  let recoveries addr =
    Fbsr_util.Metrics.get metrics
      ("host." ^ addr ^ ".fbs.engine.flow_key_recoveries")
  in
  check Alcotest.bool "sender recomputed its flow key" true
    (recoveries "10.0.0.1" > 0);
  check Alcotest.bool "receiver recomputed its flow key" true
    (recoveries "10.0.0.2" > 0);
  let fetches_after = Fbsr_util.Metrics.get metrics "fbs_ip.mkd.fetches" in
  check Alcotest.bool "certificates were refetched" true
    (fetches_after > fetches_before)

(* ------------------------------------------------------------------ *)
(* Cross-flow seal batching under adversarial delivery.                *)
(* ------------------------------------------------------------------ *)

module FEngine = Fbsr_fbs.Engine
module Fixture = Fbsr_experiments.Fixture

(* Batched sealing must be invisible end to end: with twin engine pairs
   (same fixture seed, so the same flow keys and confounder streams), an
   interleaved multi-round workload — several datagrams per flow, flows
   interleaved within one batch — seals byte-identically through the
   batch, and the batched wires survive a seeded drop+reorder link
   exactly as well as any other wire: everything the link delivers is
   accepted, everything it drops is simply absent, and no reordering can
   break a chain because each datagram's CBC chain is sealed whole at
   flush time. *)
let test_batched_wires_over_drop_reorder_link () =
  let flows = 8 and rounds = 4 in
  let payload f r = Printf.sprintf "flow %d round %d " f r ^ String.make (40 * f) 'q' in
  let scalar_pair, scalar_attrs = Fixture.warm_flows ~flows () in
  let batched_pair, batched_attrs = Fixture.warm_flows ~flows () in
  (* Interleaved enqueue order: f0r0 f1r0 ... f7r0 f0r1 ... — every flow
     has [rounds] datagrams in flight in the same batch. *)
  let scalar_wires =
    Array.init (flows * rounds) (fun i ->
        let f = i mod flows and r = i / flows in
        match
          FEngine.send_sync scalar_pair.Fixture.sender ~now:60.0
            ~attrs:scalar_attrs.(f) ~secret:true ~payload:(payload f r)
        with
        | Ok w -> w
        | Error e -> Alcotest.failf "scalar send: %a" FEngine.pp_error e)
  in
  let batch = FEngine.Batch.create ~threshold:8 batched_pair.Fixture.sender in
  let got = Array.make (flows * rounds) None in
  for i = 0 to (flows * rounds) - 1 do
    let f = i mod flows and r = i / flows in
    FEngine.send ~batch batched_pair.Fixture.sender ~now:60.0
      ~attrs:batched_attrs.(f) ~secret:true
      ~payload:(payload f r) (fun w -> got.(i) <- Some w)
  done;
  let bs, _sc = FEngine.Batch.flush batch in
  check Alcotest.bool "flush ran bitsliced" true (bs > 0);
  let batched_wires =
    Array.map
      (function
        | Some (Ok w) -> w
        | Some (Error e) -> Alcotest.failf "batched send: %a" FEngine.pp_error e
        | None -> Alcotest.fail "flush did not deliver")
      got
  in
  Array.iteri
    (fun i w ->
      if not (String.equal scalar_wires.(i) w) then
        Alcotest.failf "wire %d differs between scalar and batched seal" i)
    batched_wires;
  (* Now the adversarial delivery: drop a third, reorder half. *)
  let engine = Engine.create () in
  let profile = { Link.perfect with Link.drop = 0.3; reorder = 0.5; reorder_delay = 0.2 } in
  let link = Link.create ~seed:41 ~profile engine in
  let delivered = ref [] in
  Array.iter
    (fun w -> Link.transmit link ~deliver:(fun raw -> delivered := raw :: !delivered) w)
    batched_wires;
  Engine.run engine;
  let delivered = List.rev !delivered in
  let stats = Link.stats link in
  check Alcotest.bool "loss actually happened" true (stats.Link.dropped > 0);
  check Alcotest.bool "reordering actually happened" true (stats.Link.reordered > 0);
  let accepted = ref 0 in
  List.iter
    (fun wire ->
      match
        FEngine.receive_sync batched_pair.Fixture.receiver ~now:60.0
          ~src:batched_pair.Fixture.src ~wire
      with
      | Ok acc ->
          incr accepted;
          (* The payload self-describes its flow and round; check it is
             one we actually sent, intact. *)
          let ok = ref false in
          for f = 0 to flows - 1 do
            for r = 0 to rounds - 1 do
              if String.equal acc.FEngine.payload (payload f r) then ok := true
            done
          done;
          check Alcotest.bool "delivered payload is one of ours, intact" true !ok
      | Error e -> Alcotest.failf "receive of delivered wire: %a" FEngine.pp_error e)
    delivered;
  check Alcotest.int "every delivered wire accepted" (List.length delivered) !accepted

(* Deferred sealing must keep the exact-terminal span discipline: each
   batched datagram still records exactly one "engine.seal" span (under
   its own trace id, finished at flush, marked batched) and exactly one
   terminal receive outcome downstream. *)
let test_batched_span_accounting () =
  let spans = Fbsr_util.Span.create ~capacity:4096 () in
  let p, attrs = Fixture.warm_flows ~flows:5 ~spans () in
  Fbsr_util.Span.clear spans;
  let batch = FEngine.Batch.create p.Fixture.sender in
  let wires = ref [] in
  for i = 0 to 4 do
    FEngine.send ~batch p.Fixture.sender ~now:60.0 ~attrs:attrs.(i) ~secret:true
      ~payload:(Printf.sprintf "span %d" i) (function
      | Ok w -> wires := w :: !wires
      | Error e -> Alcotest.failf "send: %a" FEngine.pp_error e)
  done;
  let seals_before =
    List.filter
      (fun (s : Fbsr_util.Span.span) -> String.equal s.Fbsr_util.Span.stage "engine.seal")
      (Fbsr_util.Span.spans spans)
  in
  check Alcotest.int "no seal span before the flush" 0 (List.length seals_before);
  ignore (FEngine.Batch.flush batch);
  List.iter
    (fun wire ->
      match FEngine.receive_sync p.Fixture.receiver ~now:60.0 ~src:p.Fixture.src ~wire with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "receive: %a" FEngine.pp_error e)
    !wires;
  let all = Fbsr_util.Span.spans spans in
  let seal_ids =
    List.filter_map
      (fun (s : Fbsr_util.Span.span) ->
        if String.equal s.Fbsr_util.Span.stage "engine.seal" then
          Some s.Fbsr_util.Span.id
        else None)
      all
  in
  check Alcotest.int "exactly one seal span per datagram" 5 (List.length seal_ids);
  check Alcotest.int "seal spans carry distinct trace ids" 5
    (List.length (List.sort_uniq compare seal_ids));
  List.iter
    (fun (s : Fbsr_util.Span.span) ->
      if String.equal s.Fbsr_util.Span.stage "engine.seal" then
        check Alcotest.bool "seal span marked batched" true
          (List.mem ("batched", Fbsr_util.Json.Bool true) s.Fbsr_util.Span.detail))
    all;
  let delivered =
    List.length
      (List.filter
         (fun (s : Fbsr_util.Span.span) ->
           String.equal s.Fbsr_util.Span.outcome "delivered")
         all)
  in
  check Alcotest.int "exactly one delivered terminal per datagram" 5 delivered;
  List.iter
    (fun (s : Fbsr_util.Span.span) ->
      if
        String.length s.Fbsr_util.Span.outcome >= 5
        && String.sub s.Fbsr_util.Span.outcome 0 5 = "drop:"
      then Alcotest.failf "unexpected drop terminal %S" s.Fbsr_util.Span.outcome)
    all

(* The receive-side adversarial differential: corrupt, truncated and
   duplicated frames interleaved into a partially-filled receive batch
   must produce exactly the verdicts, counters and span terminals of the
   scalar receive — drop for drop, cause for cause.  Twin identically
   seeded worlds seal identical wires; one opens them scalar, the other
   through a batch that never reaches capacity (the flush is
   explicit), so refusals resolve in the prologue and the survivors
   cross the batched kernel. *)
let test_batched_rx_faulty_frames_partial_batch () =
  let flows = 6 in
  let scalar_spans = Fbsr_util.Span.create ~capacity:4096 () in
  let batched_spans = Fbsr_util.Span.create ~capacity:4096 () in
  let sp, sattrs = Fixture.warm_flows ~flows ~spans:scalar_spans () in
  let bp, battrs = Fixture.warm_flows ~flows ~spans:batched_spans () in
  let seal (p : Fixture.t) (attrs : _ array) i =
    match
      FEngine.send_sync p.Fixture.sender ~now:60.0 ~attrs:attrs.(i)
        ~secret:true
        ~payload:(Printf.sprintf "faulty rx batch frame %d payload" i)
    with
    | Ok w -> w
    | Error e -> Alcotest.failf "seal: %a" FEngine.pp_error e
  in
  let sw = Array.init flows (seal sp sattrs) in
  let bw = Array.init flows (seal bp battrs) in
  Array.iteri
    (fun i w ->
      if not (String.equal sw.(i) w) then
        Alcotest.failf "twin worlds sealed different wire %d" i)
    bw;
  (* Fault schedule over the wires, by index into the sealed array:
     intact, last-byte bit flip (garbles the CBC tail: MAC or padding
     refusal), intact, truncation to half, a duplicate of an already
     delivered frame, intact. *)
  let flip w =
    let b = Bytes.of_string w in
    let n = Bytes.length b - 1 in
    Bytes.set b n (Char.chr (Char.code (Bytes.get b n) lxor 0x10));
    Bytes.to_string b
  in
  let schedule w =
    [| w.(0); flip w.(1); w.(2); String.sub w.(3) 0 (String.length w.(3) / 2);
       w.(2); w.(4) |]
  in
  let n = Array.length (schedule sw) in
  let verdict = function
    | Ok (acc : FEngine.accepted) -> "ok:" ^ acc.FEngine.payload
    | Error e -> Format.asprintf "err:%a" FEngine.pp_error e
  in
  Fbsr_util.Span.clear scalar_spans;
  Fbsr_util.Span.clear batched_spans;
  let scalar_verdicts =
    Array.map
      (fun wire ->
        verdict
          (FEngine.receive_sync sp.Fixture.receiver ~now:60.0
             ~src:sp.Fixture.src ~wire))
      (schedule sw)
  in
  let batch = FEngine.Batch.create bp.Fixture.receiver in
  let got = Array.make n None in
  Array.iteri
    (fun i wire ->
      FEngine.receive ~batch bp.Fixture.receiver ~now:60.0 ~src:bp.Fixture.src ~wire
        (fun r -> got.(i) <- Some r))
    (schedule bw);
  check Alcotest.bool "batch stayed partial until the explicit flush" true
    (FEngine.Batch.pending batch > 0 && FEngine.Batch.pending batch < n);
  ignore (FEngine.Batch.flush batch : int * int);
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "frame %d never resolved" i
      | Some r ->
          check Alcotest.string
            (Printf.sprintf "frame %d verdict equals scalar" i)
            scalar_verdicts.(i) (verdict r))
    got;
  (* Same drops for the same causes, counter for counter. *)
  let cs = FEngine.counters sp.Fixture.receiver in
  let cb = FEngine.counters bp.Fixture.receiver in
  check Alcotest.int "accepted equal" cs.FEngine.accepted cb.FEngine.accepted;
  let drops c cause = FEngine.drop_count c cause in
  check Alcotest.int "mac drops equal" (drops cs FEngine.Mac) (drops cb FEngine.Mac);
  check Alcotest.int "decrypt drops equal" (drops cs FEngine.Decrypt)
    (drops cb FEngine.Decrypt);
  check Alcotest.int "header drops equal" (drops cs FEngine.Header)
    (drops cb FEngine.Header);
  check Alcotest.int "duplicate drops equal" (drops cs FEngine.Duplicate)
    (drops cb FEngine.Duplicate);
  check Alcotest.bool "the fault schedule actually dropped something" true
    (drops cs FEngine.Mac + drops cs FEngine.Decrypt + drops cs FEngine.Header
     > 0);
  (* And the span chains agree terminal for terminal. *)
  let terminals spans =
    List.filter_map
      (fun (s : Fbsr_util.Span.span) ->
        if String.equal s.Fbsr_util.Span.outcome "" then None
        else Some s.Fbsr_util.Span.outcome)
      (Fbsr_util.Span.spans spans)
    |> List.sort compare
  in
  check
    (Alcotest.list Alcotest.string)
    "batched receive records the same span terminals as scalar"
    (terminals scalar_spans) (terminals batched_spans)

(* ------------------------------------------------------------------ *)
(* Causal tracing across the adversarial network.                      *)
(* ------------------------------------------------------------------ *)

module Span = Fbsr_util.Span

let spans_of (r : Fbsr_experiments.Faults.result) = r.Fbsr_experiments.Faults.spans

let stages_of id spans =
  List.filter_map
    (fun (s : Span.span) ->
      if Int64.equal s.Span.id id then Some s.Span.stage else None)
    spans

let terminal_count outcome spans =
  List.length
    (List.filter
       (fun (s : Span.span) -> String.equal s.Span.outcome outcome)
       spans)

(* On a fault-free network, some datagram's trace must cover the whole
   datapath — sender classify/derive/seal, link transit, receiver
   decap/replay/receive — under a single trace id, ending delivered. *)
let test_span_full_chain () =
  let r =
    Fbsr_experiments.Faults.run ~seed:3 ~messages:20 ~faults:Link.perfect
      ~span_capacity:65536 ()
  in
  let spans = spans_of r in
  check Alcotest.bool "spans were recorded" true (spans <> []);
  let required =
    [
      "fam.classify"; "keying.derive"; "engine.seal"; "netsim.link";
      "stack.decap"; "replay.check"; "engine.receive";
    ]
  in
  let full =
    List.filter
      (fun id ->
        let st = stages_of id spans in
        List.for_all (fun s -> List.mem s st) required)
      (Span.ids spans)
  in
  check Alcotest.bool "one trace id covers all seven datapath stages" true
    (full <> []);
  check Alcotest.bool "and that flow ends delivered" true
    (List.exists
       (fun id ->
         List.exists
           (fun (s : Span.span) ->
             Int64.equal s.Span.id id
             && String.equal s.Span.stage "engine.receive"
             && String.equal s.Span.outcome "delivered")
           spans)
       full)

(* A duplicated frame is delivered twice, so its trace id must carry two
   receive-side chains (the second typically ending drop:duplicate). *)
let test_span_duplicate_chains () =
  let faults = { Link.perfect with Link.duplicate = 0.5 } in
  let r =
    Fbsr_experiments.Faults.run ~seed:7 ~messages:40 ~faults
      ~span_capacity:65536 ()
  in
  check Alcotest.bool "duplication actually happened" true
    (r.Fbsr_experiments.Faults.link.Link.duplicated > 0);
  let spans = spans_of r in
  let receives id =
    List.length
      (List.filter
         (fun (s : Span.span) ->
           Int64.equal s.Span.id id && String.equal s.Span.stage "engine.receive")
         spans)
  in
  check Alcotest.bool
    "some trace id carries two receive-side span chains" true
    (List.exists (fun id -> receives id >= 2) (Span.ids spans))

(* Reordered delivery moves span *ends* into the future but can never
   produce a span that ends before it began, and the collected list is
   globally ordered by begin time. *)
let test_span_monotone_under_reorder () =
  let faults = { Link.perfect with Link.reorder = 0.5; reorder_delay = 0.3 } in
  let r =
    Fbsr_experiments.Faults.run ~seed:13 ~messages:60 ~faults
      ~span_capacity:65536 ()
  in
  check Alcotest.bool "reordering actually happened" true
    (r.Fbsr_experiments.Faults.link.Link.reordered > 0);
  let spans = spans_of r in
  List.iter
    (fun (s : Span.span) ->
      if not (s.Span.t_begin <= s.Span.t_end) then
        Alcotest.failf "span %s begins after it ends (%g > %g)" s.Span.stage
          s.Span.t_begin s.Span.t_end)
    spans;
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        (a : Span.span).Span.t_begin <= b.Span.t_begin && sorted rest
    | _ -> true
  in
  check Alcotest.bool "collected spans are ordered by begin time" true
    (sorted spans)

(* Every drop the engines and links counted appears as exactly one
   terminal span outcome, and no span carries an unknown outcome. *)
let test_span_terminal_accounting () =
  let r =
    Fbsr_experiments.Faults.run ~seed:23 ~messages:120
      ~faults:Fbsr_experiments.Faults.hostile ~span_capacity:65536 ()
  in
  let spans = spans_of r in
  let open Fbsr_experiments.Faults in
  check Alcotest.int "every MAC failure is a drop:mac terminal"
    r.mac_failures (terminal_count "drop:mac" spans);
  check Alcotest.int "every header failure is a drop:header terminal"
    r.header_failures (terminal_count "drop:header" spans);
  check Alcotest.int "every stale rejection is a drop:stale terminal"
    r.stale_rejections (terminal_count "drop:stale" spans);
  check Alcotest.int "every duplicate rejection is a drop:duplicate terminal"
    r.duplicate_rejections (terminal_count "drop:duplicate" spans);
  check Alcotest.int "every decrypt failure is a drop:decrypt terminal"
    r.decrypt_failures (terminal_count "drop:decrypt" spans);
  check Alcotest.int "every link drop is a drop:link terminal"
    r.link.Link.dropped (terminal_count "drop:link" spans);
  check Alcotest.bool "delivered terminals exist" true
    (terminal_count "delivered" spans > 0);
  let known =
    [
      ""; "delivered"; "drop:header"; "drop:stale"; "drop:duplicate";
      "drop:keying"; "drop:mac"; "drop:decrypt"; "drop:link";
    ]
  in
  List.iter
    (fun (s : Span.span) ->
      if not (List.mem s.Span.outcome known) then
        Alcotest.failf "unknown span outcome %S on stage %s" s.Span.outcome
          s.Span.stage)
    spans

(* The drop causes, written out: a cause dropped from the code fails the
   check below instead of silently leaving its loop. *)
let expected_causes = [ "header"; "stale"; "duplicate"; "keying"; "mac"; "decrypt" ]

(* One check over all six causes, keying included: over the hostile run,
   each cause's site-wide engine counter equals the number of
   ["engine.receive"] spans with that cause's outcome.  The cause list,
   [drops_by_cause] and the registered [fbs.engine.drops.*] probes all
   name the causes above, in order. *)
let test_span_terminal_accounting_every_cause () =
  let metrics = Fbsr_util.Metrics.create () in
  let r =
    Fbsr_experiments.Faults.run ~seed:23 ~messages:120 ~metrics
      ~faults:Fbsr_experiments.Faults.hostile ~span_capacity:65536 ()
  in
  check
    Alcotest.(list string)
    "cause names, in order" expected_causes
    (List.map FEngine.cause_name FEngine.causes);
  let p = Fixture.engine_pair () in
  check
    Alcotest.(list string)
    "drops_by_cause names, in order" expected_causes
    (List.map fst (FEngine.drops_by_cause (FEngine.counters p.Fixture.receiver)));
  let probe_names = List.map (fun name -> "fbs.engine.drops." ^ name) expected_causes in
  check
    Alcotest.(list string)
    "drop metric names, in order" probe_names
    (List.map FEngine.drop_metric FEngine.causes);
  check
    Alcotest.(list string)
    "registered drop probes" (List.sort compare ("fbs.engine.drops.total" :: probe_names))
    (List.filter
       (fun n -> String.starts_with ~prefix:"fbs.engine.drops." n)
       (Fbsr_util.Metrics.names metrics));
  let receive_terminals outcome =
    List.length
      (List.filter
         (fun (s : Span.span) ->
           String.equal s.Span.stage "engine.receive"
           && String.equal s.Span.outcome outcome)
         (spans_of r))
  in
  List.iter
    (fun cause ->
      let name = FEngine.cause_name cause in
      check Alcotest.int
        ("every " ^ name ^ " drop is one engine.receive terminal")
        (Fbsr_util.Metrics.get metrics (FEngine.drop_metric cause))
        (receive_terminals (Span.drop_outcome name)))
    FEngine.causes;
  check Alcotest.int "the registry's mac drops are the run's" r.mac_failures
    (Fbsr_util.Metrics.get metrics (FEngine.drop_metric FEngine.Mac))

(* A health rule's firing count and worst value, read from the monitor's
   artifact section. *)
let health_rule (r : Fbsr_experiments.Faults.result) name =
  let open Fbsr_util.Json in
  let field k = function Obj fs -> List.assoc k fs | _ -> Alcotest.fail "not an object" in
  let rules =
    match field "rules" (Fbsr_fbs.Health.to_json r.Fbsr_experiments.Faults.health) with
    | List rules -> rules
    | _ -> Alcotest.fail "health rules are not a list"
  in
  match List.find_opt (fun rule -> field "rule" rule = String name) rules with
  | None -> Alcotest.failf "no health rule %s" name
  | Some rule -> (
      let fired = match field "fired" rule with Int n -> n | _ -> -1 in
      match field "worst" rule with
      | Obj _ as w -> (fired, match field "value" w with Float v -> Some v | _ -> None)
      | _ -> (fired, None))

(* The health monitor over the fault-injection site: bit flips make MACs
   fail, so [forgery-drops] fires, and no interval's delta exceeds the
   run's MAC failures.  On a clean network neither drop rule fires. *)
let test_health_drop_rules () =
  let run faults =
    Fbsr_experiments.Faults.run ~seed:11 ?faults ~telemetry_cadence:0.5 ()
  in
  let corrupt = run (Some Fbsr_experiments.Faults.corrupting) in
  check Alcotest.bool "the corrupting run failed some MACs" true
    (corrupt.Fbsr_experiments.Faults.mac_failures > 0);
  check Alcotest.bool "the monitor ran" true
    (Fbsr_fbs.Health.checks corrupt.Fbsr_experiments.Faults.health > 0);
  (match health_rule corrupt "forgery-drops" with
  | fired, Some worst ->
      check Alcotest.bool "forgery-drops fired" true (fired > 0);
      check Alcotest.bool "worst interval within the run's MAC failures" true
        (worst <= float_of_int corrupt.Fbsr_experiments.Faults.mac_failures)
  | _, None -> Alcotest.fail "forgery-drops never fired under bit flips");
  let clean = run None in
  check Alcotest.bool "the monitor ran on the clean run" true
    (Fbsr_fbs.Health.checks clean.Fbsr_experiments.Faults.health > 0);
  List.iter
    (fun rule ->
      check Alcotest.int (rule ^ " silent on a clean network") 0
        (fst (health_rule clean rule)))
    [ "forgery-drops"; "replay-drops" ]

(* The same exact-terminal discipline must survive the batched receive
   pipeline: with the stack deferring body opens into the linger-flushed
   cross-flow batch, every counted drop still appears as exactly one
   terminal span of its cause, and nothing unknown leaks in. *)
let test_span_terminal_accounting_batched_rx () =
  let r =
    Fbsr_experiments.Faults.run ~seed:23 ~messages:120 ~batched_rx:true
      ~faults:Fbsr_experiments.Faults.hostile ~span_capacity:65536 ()
  in
  let spans = spans_of r in
  let open Fbsr_experiments.Faults in
  check Alcotest.int "every MAC failure is a drop:mac terminal"
    r.mac_failures (terminal_count "drop:mac" spans);
  check Alcotest.int "every header failure is a drop:header terminal"
    r.header_failures (terminal_count "drop:header" spans);
  check Alcotest.int "every stale rejection is a drop:stale terminal"
    r.stale_rejections (terminal_count "drop:stale" spans);
  check Alcotest.int "every duplicate rejection is a drop:duplicate terminal"
    r.duplicate_rejections (terminal_count "drop:duplicate" spans);
  check Alcotest.int "every decrypt failure is a drop:decrypt terminal"
    r.decrypt_failures (terminal_count "drop:decrypt" spans);
  check Alcotest.int "every link drop is a drop:link terminal"
    r.link.Link.dropped (terminal_count "drop:link" spans);
  check Alcotest.bool "delivered terminals exist" true
    (terminal_count "delivered" spans > 0);
  check Alcotest.int "the hostile network forged nothing" 0
    r.forgeries_accepted;
  let known =
    [
      ""; "delivered"; "drop:header"; "drop:stale"; "drop:duplicate";
      "drop:keying"; "drop:mac"; "drop:decrypt"; "drop:link";
    ]
  in
  List.iter
    (fun (s : Span.span) ->
      if not (List.mem s.Span.outcome known) then
        Alcotest.failf "unknown span outcome %S on stage %s" s.Span.outcome
          s.Span.stage)
    spans

(* At 1-in-64 head sampling the adaptive sampler must still retain every
   drop-terminated chain in full (tail-keep promotion), with its causal
   context, while normal delivered chains thin to the head-sampled
   subset.  The head decision is a pure hash of the trace id, so a fresh
   sampler at the same ratio reproduces it exactly. *)
let test_span_sampling_drop_retention () =
  let r =
    Fbsr_experiments.Faults.run ~seed:23 ~messages:120
      ~faults:Fbsr_experiments.Faults.hostile ~span_capacity:65536
      ~span_sample:64 ()
  in
  let spans = spans_of r in
  let open Fbsr_experiments.Faults in
  (* 100% drop retention: the sampled recorder still matches the engine
     and link counters exactly, per cause — nothing anomalous was lost. *)
  check Alcotest.int "every MAC failure retained at 1/64"
    r.mac_failures (terminal_count "drop:mac" spans);
  check Alcotest.int "every header failure retained at 1/64"
    r.header_failures (terminal_count "drop:header" spans);
  check Alcotest.int "every stale rejection retained at 1/64"
    r.stale_rejections (terminal_count "drop:stale" spans);
  check Alcotest.int "every duplicate rejection retained at 1/64"
    r.duplicate_rejections (terminal_count "drop:duplicate" spans);
  check Alcotest.int "every decrypt failure retained at 1/64"
    r.decrypt_failures (terminal_count "drop:decrypt" spans);
  check Alcotest.int "every link drop retained at 1/64"
    r.link.Link.dropped (terminal_count "drop:link" spans);
  (* Causal context survives promotion: a drop-terminated chain carries
     more than just its terminal span. *)
  let chain id =
    List.filter (fun (s : Span.span) -> Int64.equal s.Span.id id) spans
  in
  let is_drop (s : Span.span) = Span.is_drop s.Span.outcome in
  let anomalous id = List.exists Span.is_anomaly (chain id) in
  List.iter
    (fun id ->
      if List.exists is_drop (chain id) && List.length (chain id) < 2 then
        Alcotest.failf "drop chain %Ld promoted without its causal context" id)
    (Span.ids spans);
  (* Thinning: every retained chain is either head-sampled (reproducible
     from the id alone) or contains an anomaly that tail-keep promoted. *)
  let probe = Span.sampler ~ratio:64 () in
  List.iter
    (fun id ->
      if not (Span.sampled_in probe id || anomalous id) then
        Alcotest.failf "chain %Ld retained but neither sampled nor anomalous"
          id)
    (Span.ids spans);
  (* And thinning actually happened: far fewer delivered terminals than
     the unsampled run records. *)
  check Alcotest.bool "delivered chains thinned" true
    (terminal_count "delivered" spans < r.accepted + r.duplicates_delivered);
  match r.sampler with
  | None -> Alcotest.fail "sampler audit expected when span_sample > 1"
  | Some st ->
      check Alcotest.int "no undecided chains evicted" 0
        st.Span.evicted_chains;
      (* Chains still in flight when the simulation ends stay parked —
         a handful, not an unbounded residue. *)
      check Alcotest.bool "only in-flight chains still parked" true
        (st.Span.pending_spans < 64);
      check Alcotest.bool "tail-keep promoted anomalous chains" true
        (st.Span.promoted_chains > 0);
      check Alcotest.bool "normal chains were discarded" true
        (st.Span.discarded_chains > 0)

(* Tracing must not perturb the simulation: the same seed and profile
   give byte-identical results with the recorders on or off.  Only the
   simulation outcome is compared — the spans themselves obviously
   differ, and the telemetry recorder handles carry a NaN grid anchor
   ([Timeseries] pre-first-tick) that defeats structural equality even
   against itself. *)
let test_span_tracing_is_transparent () =
  let run cap =
    let r =
      Fbsr_experiments.Faults.run ~seed:23 ~messages:60
        ~faults:Fbsr_experiments.Faults.hostile ~span_capacity:cap ()
    in
    let open Fbsr_experiments.Faults in
    ( r.offered, r.accepted, r.transmissions, r.duplicates_delivered,
      r.forgeries_accepted, r.mac_failures, r.header_failures,
      r.stale_rejections, r.duplicate_rejections, r.decrypt_failures,
      r.flow_key_recoveries, r.mkd_fetches, r.mkd_retransmissions, r.link )
  in
  check Alcotest.bool "identical result with tracing on and off" true
    (run 0 = run 65536)

let () =
  Alcotest.run "faults"
    [
      ( "link",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_link_determinism;
          Alcotest.test_case "perfect profile is identity" `Quick
            test_link_perfect_is_identity;
          Alcotest.test_case "drop rate" `Quick test_link_drop_rate;
          Alcotest.test_case "reorder permutes" `Quick test_link_reorder;
          Alcotest.test_case "truncate yields proper prefixes" `Quick test_link_truncate;
          Alcotest.test_case "corrupt flips one bit" `Quick
            test_link_corrupt_flips_one_bit;
          Alcotest.test_case "profile validation" `Quick test_link_profile_validation;
          Alcotest.test_case "stats visible through the registry" `Quick
            test_link_metrics_probes;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "no forgery under corruption" `Quick
            test_no_forgery_under_corruption;
          Alcotest.test_case "loss recovered by retransmission" `Quick
            test_loss_recovered_by_retransmission;
          Alcotest.test_case "hostile network invariants" `Quick
            test_hostile_network_invariants;
          Alcotest.test_case "link totals agree across views" `Quick
            test_link_totals_agree;
          Alcotest.test_case "replayed capture rejected" `Quick
            test_replayed_capture_rejected;
          Alcotest.test_case "soft-state wipe recovers" `Quick
            test_soft_state_wipe_recovers;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batched wires over a drop+reorder link" `Quick
            test_batched_wires_over_drop_reorder_link;
          Alcotest.test_case "deferred seal keeps exact span accounting" `Quick
            test_batched_span_accounting;
          Alcotest.test_case "faulty frames in a partial rx batch = scalar"
            `Quick test_batched_rx_faulty_frames_partial_batch;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "full chain under one trace id" `Quick
            test_span_full_chain;
          Alcotest.test_case "duplicates yield two receive chains" `Quick
            test_span_duplicate_chains;
          Alcotest.test_case "monotone spans under reorder" `Quick
            test_span_monotone_under_reorder;
          Alcotest.test_case "terminal outcome accounting" `Quick
            test_span_terminal_accounting;
          Alcotest.test_case "terminal accounting under batched receive" `Quick
            test_span_terminal_accounting_batched_rx;
          Alcotest.test_case "1/64 sampling retains every drop chain" `Quick
            test_span_sampling_drop_retention;
          Alcotest.test_case "tracing does not perturb the run" `Quick
            test_span_tracing_is_transparent;
          Alcotest.test_case "terminal accounting, every cause" `Quick
            test_span_terminal_accounting_every_cause;
        ] );
      ( "health",
        [ Alcotest.test_case "drop rules fire on faults only" `Quick test_health_drop_rules ] );
    ]
