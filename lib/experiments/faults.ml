(* Adversarial-network experiment: datagram delivery through real FBS
   stacks over fault-injection links (Fbsr_netsim.Link).

   The paper's robustness story (Sections 5.3 and 6) is that every piece
   of FBS state is soft: loss is recovered by retransmission above and
   recomputation below, and nothing an adversarial network does — drop,
   duplicate, reorder, truncate, flip bits — can make a receiver accept a
   datagram that fails verification.  This experiment measures both halves:

   - *liveness*: a stop-and-wait application with bounded retries reaches
     near-total eventual delivery over a lossy, reordering network, with
     the MKD's retry/backoff carrying the certificate fetches through the
     same network;
   - *safety*: under bit-flip corruption, every corrupted datagram dies at
     the MAC (or earlier, at header decode) and none reaches the
     application with altered content.

   Everything is driven from a fixed seed, so a run is a deterministic
   function of its parameters. *)

open Fbsr_netsim
open Fbsr_fbs_ip

type result = {
  offered : int;  (** distinct application messages attempted *)
  accepted : int;  (** messages eventually delivered (deduplicated) *)
  transmissions : int;  (** datagram sends including retransmissions *)
  duplicates_delivered : int;  (** extra deliveries of an already-seen seq *)
  forgeries_accepted : int;  (** deliveries whose payload differs from the canonical *)
  mac_failures : int;
  header_failures : int;
  stale_rejections : int;
  duplicate_rejections : int;
  decrypt_failures : int;
  flow_key_recoveries : int;
  mkd_fetches : int;
  mkd_retransmissions : int;
  link : Link.stats;
  spans : Fbsr_util.Span.span list;
      (** merged causal-trace spans from every host's flight recorder
          (empty unless [run ~span_capacity] was positive) *)
  sampler : Fbsr_util.Span.sampler_stats option;
      (** adaptive-sampling audit (present iff [span_sample > 1]) *)
  timeseries : Fbsr_util.Timeseries.t;
      (** flight-recorder rows over the site registry
          ({!Fbsr_util.Timeseries.none} unless [telemetry_cadence]) *)
  health : Fbsr_fbs.Health.t;
      (** rule monitor over [timeseries] ({!Fbsr_fbs.Health.none} unless
          [telemetry_cadence]) *)
}

let acceptance_rate r =
  if r.offered = 0 then 1.0 else float_of_int r.accepted /. float_of_int r.offered

(* Canonical payload for sequence number [seq]: self-describing and long
   enough that truncation or corruption cannot yield another valid one
   without defeating the MAC. *)
let payload_for seq = Printf.sprintf "D%08d|%s" seq (String.make 64 'x')

(* Stop-and-wait driver: each message is sent up to [max_attempts] times,
   [rto] apart, until acknowledged; messages start [spacing] apart.  The
   transport is deliberately dumb — the point is the network and the
   security layer under it, not ARQ sophistication. *)
let max_attempts = 8
let rto = 0.5
let spacing = 0.05

let run ?(seed = 11) ?(messages = 200) ?(batched_rx = false) ?faults ?metrics
    ?(span_capacity = 0) ?span_cost_clock ?(span_sample = 1) ?telemetry_cadence
    () =
  (* Strict replay: a copy the link duplicated dies at the receiver's
     replay check (the report's "dup rej" column). *)
  let config = Stack.default_config ~strict_replay:true ~batched_rx () in
  let mkd_config =
    (* Aggressive enough that keying completes within the experiment even
       when several fetch attempts are lost in a row. *)
    { Mkd.timeout = 0.25; max_attempts = 6 }
  in
  let tb =
    Testbed.create ~seed ~config ~mkd_config ?faults ?metrics ~span_capacity
      ?span_cost_clock ~span_sample ()
  in
  (* Telemetry plane: a flight recorder over the site registry plus the
     health monitor, ticked on the simulated clock.  The tick events are
     pre-scheduled over the experiment's bounded horizon, so the recorder
     cannot keep the (run-to-quiescence) event loop alive. *)
  let ts, health =
    match telemetry_cadence with
    | None -> (Fbsr_util.Timeseries.none, Fbsr_fbs.Health.none)
    | Some cad ->
        let ts =
          Fbsr_util.Timeseries.create ~cadence:cad ~host:"faults"
            ~metrics:(Testbed.metrics tb) ()
        in
        (ts, Fbsr_fbs.Health.create ~ts ())
  in
  let sender = Testbed.add_host tb ~name:"sender" ~addr:"10.0.0.1" in
  let receiver = Testbed.add_host tb ~name:"receiver" ~addr:"10.0.0.2" in
  let engine = Testbed.engine tb in
  let acked = Array.make messages false in
  let seen = Array.make messages false in
  let duplicates_delivered = ref 0 in
  let forgeries_accepted = ref 0 in
  let transmissions = ref 0 in
  let data_port = 4000 and ack_port = 4001 in
  (* Receiver: deliver-once per sequence number, ack every copy (the ack
     may be the one that got lost), flag any payload that differs from
     the canonical bytes for its claimed sequence number. *)
  Udp_stack.listen receiver.Testbed.host ~port:data_port
    (fun ~src ~src_port:_ msg ->
      match
        if String.length msg >= 10 && msg.[0] = 'D' then
          int_of_string_opt (String.sub msg 1 8)
        else None
      with
      | Some seq when seq >= 0 && seq < messages ->
          if not (String.equal msg (payload_for seq)) then
            incr forgeries_accepted
          else begin
            if seen.(seq) then incr duplicates_delivered else seen.(seq) <- true;
            Udp_stack.send receiver.Testbed.host ~src_port:data_port ~dst:src
              ~dst_port:ack_port (Printf.sprintf "A%08d" seq)
          end
      | Some _ | None -> incr forgeries_accepted);
  Udp_stack.listen sender.Testbed.host ~port:ack_port (fun ~src:_ ~src_port:_ msg ->
      if String.length msg = 9 && msg.[0] = 'A' then
        match int_of_string_opt (String.sub msg 1 8) with
        | Some seq when seq >= 0 && seq < messages -> acked.(seq) <- true
        | Some _ | None -> ());
  (* One stop-and-wait machine per message, started [spacing] apart so
     flows overlap but the run stays bounded. *)
  let send_seq seq =
    incr transmissions;
    Udp_stack.send sender.Testbed.host ~src_port:ack_port
      ~dst:(Host.addr receiver.Testbed.host) ~dst_port:data_port (payload_for seq)
  in
  let rec attempt seq n =
    if (not acked.(seq)) && n <= max_attempts then begin
      send_seq seq;
      Engine.schedule engine ~delay:rto (fun () -> attempt seq (n + 1))
    end
  in
  for seq = 0 to messages - 1 do
    Engine.schedule engine ~delay:(float_of_int seq *. spacing) (fun () ->
        attempt seq 1)
  done;
  (match telemetry_cadence with
  | None -> ()
  | Some cad ->
      let horizon =
        (float_of_int messages *. spacing)
        +. (float_of_int (max_attempts + 2) *. rto)
      in
      let ticks = min 4096 (int_of_float (horizon /. cad)) in
      for i = 0 to ticks do
        Engine.schedule engine ~delay:(float_of_int i *. cad) (fun () ->
            let now = Engine.now engine in
            Fbsr_util.Timeseries.tick ts ~now;
            Fbsr_fbs.Health.check health ~now)
      done);
  Testbed.run tb;
  (match telemetry_cadence with
  | None -> ()
  | Some _ ->
      let now = Testbed.now tb in
      Fbsr_util.Timeseries.force ts ~now;
      Fbsr_fbs.Health.check health ~now);
  let accepted = Array.fold_left (fun n s -> if s then n + 1 else n) 0 seen in
  let c tap =
    List.fold_left
      (fun acc (node : Testbed.node) ->
        acc + tap (Fbsr_fbs.Engine.counters (Stack.engine node.Testbed.stack)))
      0
      [ sender; receiver ]
  in
  let drops cause = c (fun x -> Fbsr_fbs.Engine.drop_count x cause) in
  let mkd tap =
    List.fold_left
      (fun acc (node : Testbed.node) -> acc + tap (Mkd.stats node.Testbed.mkd))
      0
      [ sender; receiver ]
  in
  {
    offered = messages;
    accepted;
    transmissions = !transmissions;
    duplicates_delivered = !duplicates_delivered;
    forgeries_accepted = !forgeries_accepted;
    mac_failures = drops Fbsr_fbs.Engine.Mac;
    header_failures = drops Fbsr_fbs.Engine.Header;
    stale_rejections = drops Fbsr_fbs.Engine.Stale;
    duplicate_rejections = drops Fbsr_fbs.Engine.Duplicate;
    decrypt_failures = drops Fbsr_fbs.Engine.Decrypt;
    flow_key_recoveries = c (fun x -> x.Fbsr_fbs.Engine.flow_key_recoveries);
    mkd_fetches = mkd (fun s -> s.Mkd.fetches);
    mkd_retransmissions = mkd (fun s -> s.Mkd.retransmissions);
    link = Testbed.link_stats tb;
    spans = Testbed.collect_spans tb;
    sampler = Option.map Fbsr_util.Span.sampler_stats (Testbed.span_sampler tb);
    timeseries = ts;
    health;
  }

let to_json (r : result) =
  let open Fbsr_util.Json in
  let l = r.link in
  Obj
    [
      ("offered", Int r.offered);
      ("accepted", Int r.accepted);
      ("transmissions", Int r.transmissions);
      ("duplicates_delivered", Int r.duplicates_delivered);
      ("forgeries_accepted", Int r.forgeries_accepted);
      ("mac_failures", Int r.mac_failures);
      ("header_failures", Int r.header_failures);
      ("stale_rejections", Int r.stale_rejections);
      ("duplicate_rejections", Int r.duplicate_rejections);
      ("decrypt_failures", Int r.decrypt_failures);
      ("flow_key_recoveries", Int r.flow_key_recoveries);
      ("mkd_fetches", Int r.mkd_fetches);
      ("mkd_retransmissions", Int r.mkd_retransmissions);
      ( "link",
        Obj
          [
            ("offered", Int l.Link.offered);
            ("delivered", Int l.Link.delivered);
            ("dropped", Int l.Link.dropped);
            ("duplicated", Int l.Link.duplicated);
            ("reordered", Int l.Link.reordered);
            ("truncated", Int l.Link.truncated);
            ("corrupted", Int l.Link.corrupted);
          ] );
    ]

(* The fault profiles the report sweeps. *)
let lossy =
  { Link.perfect with Link.drop = 0.10; reorder = 0.05; reorder_delay = 0.2 }

let corrupting = { Link.perfect with Link.corrupt = 0.01 }

let hostile =
  {
    Link.drop = 0.10;
    duplicate = 0.02;
    reorder = 0.05;
    reorder_delay = 0.2;
    truncate = 0.005;
    corrupt = 0.01;
  }

let sampler_stats_to_json (s : Fbsr_util.Span.sampler_stats) =
  let open Fbsr_util.Json in
  Obj
    [
      ("kept_chains", Int s.Fbsr_util.Span.kept_chains);
      ("promoted_chains", Int s.Fbsr_util.Span.promoted_chains);
      ("discarded_chains", Int s.Fbsr_util.Span.discarded_chains);
      ("evicted_chains", Int s.Fbsr_util.Span.evicted_chains);
      ("pending_spans", Int s.Fbsr_util.Span.pending_spans);
    ]

let report ?(seed = 11) ?json ?spans_out ?metrics_text ?(telemetry = false) () =
  let pf = Printf.printf in
  pf "\n================================================================\n";
  pf "Adversarial network: FBS over fault-injection links\n";
  pf "================================================================\n";
  pf "%-28s %9s %8s %7s %7s %7s %7s\n" "profile" "accepted" "xmit" "macerr"
    "dup rej" "forged" "recov";
  (* One registry across all four runs: the exposition dump aggregates the
     whole sweep.  Tracing is armed only when a spans path was asked for. *)
  let metrics =
    match metrics_text with
    | Some _ -> Some (Fbsr_util.Metrics.create ())
    | None -> None
  in
  let span_capacity =
    match (spans_out, telemetry) with
    | Some _, _ -> 32768
    | None, true -> 32768 (* telemetry demos the adaptive sampler *)
    | None, false -> 0
  in
  let span_sample = if telemetry then 64 else 1 in
  let telemetry_cadence = if telemetry then Some 0.5 else None in
  let row name faults =
    let r =
      run ~seed ?faults ?metrics ~span_capacity ~span_sample
        ?telemetry_cadence ()
    in
    pf "%-28s %4d/%-4d %8d %7d %7d %7d %7d\n" name r.accepted r.offered
      r.transmissions r.mac_failures r.duplicate_rejections r.forgeries_accepted
      r.flow_key_recoveries;
    r
  in
  let clean = row "clean" None in
  let loss = row "10% loss + 5% reorder" (Some lossy) in
  let corrupt = row "1% bit flips" (Some corrupting) in
  let combined = row "hostile (all faults)" (Some hostile) in
  pf "\nlink totals under 'hostile': %s\n"
    (Format.asprintf "%a" Link.pp_stats combined.link);
  pf "MKD under 'hostile': %d fetches, %d retransmissions\n"
    combined.mkd_fetches combined.mkd_retransmissions;
  let verdict ok = if ok then "PASS" else "FAIL" in
  pf "\n[%s] >= 99%% eventual acceptance under 10%% loss / 5%% reorder (got %.1f%%)\n"
    (verdict (acceptance_rate loss >= 0.99))
    (100.0 *. acceptance_rate loss);
  pf "[%s] zero forgeries accepted under 1%% corruption (got %d, %d MAC rejections)\n"
    (verdict (corrupt.forgeries_accepted = 0))
    corrupt.forgeries_accepted corrupt.mac_failures;
  if telemetry then begin
    let ts = combined.timeseries in
    pf "\ntelemetry ('hostile' run): %d snapshots at %.2fs cadence, %d columns\n"
      (Fbsr_util.Timeseries.taken ts)
      (Fbsr_util.Timeseries.cadence ts)
      (List.length (Fbsr_util.Timeseries.names ts));
    (match combined.sampler with
    | None -> ()
    | Some s ->
        pf
          "span sampling 1/%d: %d kept, %d promoted (anomaly tail-keep), %d \
           discarded, %d evicted\n"
          span_sample s.Fbsr_util.Span.kept_chains
          s.Fbsr_util.Span.promoted_chains s.Fbsr_util.Span.discarded_chains
          s.Fbsr_util.Span.evicted_chains);
    Format.printf "@[<v>%a@]@." Fbsr_fbs.Health.report combined.health;
    Format.printf "@[<v>%a@]@."
      (fun ppf () ->
        Fbsr_util.Timeseries.dashboard ppf ts
          ~names:[ "fbs.engine.drops.total"; "fbs.engine.accepted" ])
      ()
  end;
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        Fbsr_util.Json.Obj
          ([
             ("schema", Fbsr_util.Json.String "fbsr-faults/1");
             ("seed", Fbsr_util.Json.Int seed);
             ( "profiles",
               Fbsr_util.Json.Obj
                 [
                   ("clean", to_json clean);
                   ("lossy", to_json loss);
                   ("corrupting", to_json corrupt);
                   ("hostile", to_json combined);
                 ] );
           ]
          @
          if telemetry then
            [
              ( "telemetry",
                Fbsr_util.Json.Obj
                  [
                    ( "timeseries",
                      Fbsr_util.Timeseries.to_json combined.timeseries );
                    ("health", Fbsr_fbs.Health.to_json combined.health);
                    ( "sampler",
                      match combined.sampler with
                      | None -> Fbsr_util.Json.Null
                      | Some s -> sampler_stats_to_json s );
                  ] );
            ]
          else [])
      in
      let oc = open_out path in
      output_string oc (Fbsr_util.Json.to_string_pretty doc);
      close_out oc;
      pf "\nwrote %s\n" path);
  (match spans_out with
  | None -> ()
  | Some path ->
      (* The hostile run's spans: the richest timeline — drops, duplicates,
         reorders and MKD fetch chains all appear.  Feed the file to
         tracedump for text timelines or Chrome trace-event conversion. *)
      let oc = open_out path in
      output_string oc
        (Fbsr_util.Json.to_string_pretty (Fbsr_util.Span.to_json combined.spans));
      close_out oc;
      pf "wrote %s (%d spans from the hostile run)\n" path
        (List.length combined.spans));
  match metrics_text with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (match metrics with
        | Some m -> Fbsr_util.Metrics.to_text m
        | None -> "");
      close_out oc;
      pf "wrote %s\n" path
