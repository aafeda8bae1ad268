(* Concurrent bulk transfers over a lossy shared segment.  See
   transfers_scenario.mli. *)

open Fbsr_netsim
open Fbsr_fbs_ip
module J = Fbsr_util.Json

type conn_row = {
  index : int;
  bytes_expected : int;
  bytes_received : int;
  intact : bool;
  closed : bool;
  retransmits : int;
  fast_retransmits : int;
  timeouts : int;
  cwnd : int;
  ssthresh : int;
  segments_out : int;
}

type result = {
  transfers : int;
  bytes_per_transfer : int;
  loss : float;
  seed : int;
  suite : string;
  elapsed_s : float;
  delivered_bytes : int;
  goodput_bps : float;
  link_offered : int;
  link_dropped : int;
  total_retransmits : int;
  total_fast_retransmits : int;
  total_timeouts : int;
  rows : conn_row list;
  failures : string list;
  ok : bool;
  timeseries : Fbsr_util.Timeseries.t;
  health : Fbsr_fbs.Health.t;
}

(* Deterministic per-connection payload: integrity means every byte came
   back in order from the right connection, not merely the right count. *)
let payload ~bytes index =
  String.init bytes (fun i -> Char.chr ((i + (index * 131)) land 0xff))

let string_of_state : Minitcp.state -> string = function
  | Syn_sent -> "syn-sent"
  | Syn_received -> "syn-received"
  | Established -> "established"
  | Fin_wait -> "fin-wait"
  | Close_wait -> "close-wait"
  | Last_ack -> "last-ack"
  | Closed -> "closed"

let horizon = 1800.0

let run ?(transfers = 200) ?(bytes_per_transfer = 32_768) ?(loss = 0.01)
    ?(seed = 20260809) ?telemetry_cadence () =
  if transfers < 1 then invalid_arg "Transfers_scenario.run: transfers < 1";
  if bytes_per_transfer < 1 then
    invalid_arg "Transfers_scenario.run: bytes_per_transfer < 1";
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let tb =
    Testbed.create ~seed
      ~config:(Stack.default_config ())
      ~faults:{ Link.perfect with Link.drop = loss }
      ()
  in
  (* Telemetry plane over the site registry, ticked on the simulated
     clock; ticks are pre-scheduled over the fixed run bound so they
     cannot extend it. *)
  let ts, health =
    match telemetry_cadence with
    | None -> (Fbsr_util.Timeseries.none, Fbsr_fbs.Health.none)
    | Some cad ->
        let ts =
          Fbsr_util.Timeseries.create ~capacity:2048 ~cadence:cad
            ~host:"transfers" ~metrics:(Testbed.metrics tb) ()
        in
        let health = Fbsr_fbs.Health.create ~ts () in
        let engine = Testbed.engine tb in
        let ticks = min 4096 (int_of_float (horizon /. cad)) in
        for i = 0 to ticks do
          Engine.schedule engine ~delay:(Float.of_int i *. cad) (fun () ->
              let now = Engine.now engine in
              Fbsr_util.Timeseries.tick ts ~now;
              Fbsr_fbs.Health.check health ~now)
        done;
        (ts, health)
  in
  let a = Testbed.add_host tb ~name:"sender" ~addr:"10.0.0.1" in
  let b = Testbed.add_host tb ~name:"receiver" ~addr:"10.0.0.2" in
  let sender = a.Testbed.host and receiver = b.Testbed.host in
  let bufs = Array.init transfers (fun _ -> Buffer.create bytes_per_transfer) in
  (* The accept callback only sees the server-side conn; the client's
     ephemeral port is the demultiplexing key back to the transfer index. *)
  let idx_of_port = Hashtbl.create transfers in
  Minitcp.listen receiver ~port:5001 (fun conn ->
      (match Hashtbl.find_opt idx_of_port (snd (Minitcp.peer conn)) with
      | Some idx ->
          Minitcp.on_receive conn (fun d -> Buffer.add_string bufs.(idx) d)
      | None -> failf "accept from unknown client port %d" (snd (Minitcp.peer conn)));
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  (* The site's periodic soft-state timers keep the event queue alive
     past the transfers, so the run always reaches the bound; the last
     client close stamps the actual completion time. *)
  let finished_at = ref 0.0 in
  let conns =
    Array.init transfers (fun idx ->
        let c = Minitcp.connect sender ~dst:(Host.addr receiver) ~dst_port:5001 in
        Hashtbl.replace idx_of_port (Minitcp.local_port c) idx;
        Minitcp.on_established c (fun () ->
            Minitcp.send c (payload ~bytes:bytes_per_transfer idx);
            Minitcp.close c);
        Minitcp.on_close c (fun () ->
            finished_at := Float.max !finished_at (Testbed.now tb));
        c)
  in
  Testbed.run ~until:horizon tb;
  (match telemetry_cadence with
  | None -> ()
  | Some _ ->
      let now = Testbed.now tb in
      Fbsr_util.Timeseries.force ts ~now;
      Fbsr_fbs.Health.check health ~now);
  let elapsed = !finished_at in
  let rows =
    Array.to_list
      (Array.mapi
         (fun idx c ->
           let got = Buffer.contents bufs.(idx) in
           let intact = String.equal got (payload ~bytes:bytes_per_transfer idx) in
           let closed = Minitcp.state c = Minitcp.Closed in
           if not closed then
             failf "conn %d: client not closed (%s)" idx
               (string_of_state (Minitcp.state c));
           if String.length got <> bytes_per_transfer then
             failf "conn %d: delivered %d of %d bytes" idx (String.length got)
               bytes_per_transfer
           else if not intact then failf "conn %d: delivered bytes corrupted" idx;
           {
             index = idx;
             bytes_expected = bytes_per_transfer;
             bytes_received = String.length got;
             intact;
             closed;
             retransmits = Minitcp.retransmits c;
             fast_retransmits = Minitcp.fast_retransmits c;
             timeouts = Minitcp.timeouts c;
             cwnd = Minitcp.cwnd c;
             ssthresh = Minitcp.ssthresh c;
             segments_out = Minitcp.segments_out c;
           })
         conns)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let delivered = sum (fun r -> r.bytes_received) in
  let ls = Testbed.link_stats tb in
  {
    transfers;
    bytes_per_transfer;
    loss;
    seed;
    suite = Fbsr_fbs.Suite.(name paper_md5_des);
    elapsed_s = elapsed;
    delivered_bytes = delivered;
    goodput_bps =
      (if elapsed > 0.0 then Float.of_int (delivered * 8) /. elapsed else 0.0);
    link_offered = ls.Link.offered;
    link_dropped = ls.Link.dropped;
    total_retransmits = sum (fun r -> r.retransmits);
    total_fast_retransmits = sum (fun r -> r.fast_retransmits);
    total_timeouts = sum (fun r -> r.timeouts);
    rows;
    failures = List.rev !failures;
    ok = !failures = [];
    timeseries = ts;
    health;
  }

let to_json r =
  J.Obj
    ([
       ("schema", J.String "fbsr-transfers/1");
      ("transfers", J.Int r.transfers);
      ("bytes_per_transfer", J.Int r.bytes_per_transfer);
      ("loss", J.Float r.loss);
      ("seed", J.Int r.seed);
      ("suite", J.String r.suite);
      ("elapsed_s", J.Float r.elapsed_s);
      ("delivered_bytes", J.Int r.delivered_bytes);
      ("goodput_bps", J.Float r.goodput_bps);
      ("link_offered", J.Int r.link_offered);
      ("link_dropped", J.Int r.link_dropped);
      ("total_retransmits", J.Int r.total_retransmits);
      ("total_fast_retransmits", J.Int r.total_fast_retransmits);
      ("total_timeouts", J.Int r.total_timeouts);
      ( "connections",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("index", J.Int c.index);
                   ("bytes_expected", J.Int c.bytes_expected);
                   ("bytes_received", J.Int c.bytes_received);
                   ("intact", J.Bool c.intact);
                   ("closed", J.Bool c.closed);
                   ("retransmits", J.Int c.retransmits);
                   ("fast_retransmits", J.Int c.fast_retransmits);
                   ("timeouts", J.Int c.timeouts);
                   ("cwnd", J.Int c.cwnd);
                   ("ssthresh", J.Int c.ssthresh);
                   ("segments_out", J.Int c.segments_out);
                 ])
             r.rows) );
      ("failures", J.List (List.map (fun m -> J.String m) r.failures));
      ("ok", J.Bool r.ok);
    ]
    @
    if Fbsr_util.Timeseries.enabled r.timeseries then
      [
        ( "telemetry",
          J.Obj
            [
              ("timeseries", Fbsr_util.Timeseries.to_json r.timeseries);
              ("health", Fbsr_fbs.Health.to_json r.health);
            ] );
      ]
    else [])

let report ?transfers ?bytes_per_transfer ?loss ?seed ?(telemetry = false) ?json () =
  let telemetry_cadence = if telemetry then Some 1.0 else None in
  let r =
    run ?transfers ?bytes_per_transfer ?loss ?seed ?telemetry_cadence ()
  in
  Fmt.pr "=== concurrent bulk transfers over a lossy shared segment ===@.";
  Fmt.pr "%d transfers x %d B  suite %s  frame loss %.2f%%  seed %d@."
    r.transfers r.bytes_per_transfer r.suite (100.0 *. r.loss) r.seed;
  Fmt.pr "simulated %.2f s  delivered %d B  goodput %.2f Mb/s@." r.elapsed_s
    r.delivered_bytes (r.goodput_bps /. 1e6);
  Fmt.pr "link: %d frames offered, %d dropped@." r.link_offered r.link_dropped;
  let over f init cmp = List.fold_left (fun acc c -> cmp acc (f c)) init r.rows in
  let n = Float.of_int (List.length r.rows) in
  let mean f = Float.of_int (over f 0 ( + )) /. n in
  Fmt.pr
    "retransmits %d (fast %d, timeouts %d)  per-conn retransmits \
     min/mean/max %d/%.1f/%d@."
    r.total_retransmits r.total_fast_retransmits r.total_timeouts
    (over (fun c -> c.retransmits) max_int min)
    (mean (fun c -> c.retransmits))
    (over (fun c -> c.retransmits) 0 max);
  Fmt.pr "final cwnd min/mean/max %d/%.0f/%d B  ssthresh mean %.0f B@."
    (over (fun c -> c.cwnd) max_int min)
    (mean (fun c -> c.cwnd))
    (over (fun c -> c.cwnd) 0 max)
    (mean (fun c -> c.ssthresh));
  List.iter (fun m -> Fmt.pr "  FAIL: %s@." m) r.failures;
  if Fbsr_util.Timeseries.enabled r.timeseries then begin
    Fmt.pr "telemetry: %d snapshots, %d columns@."
      (Fbsr_util.Timeseries.taken r.timeseries)
      (List.length (Fbsr_util.Timeseries.names r.timeseries));
    Format.printf "@[<v>%a@]@." Fbsr_fbs.Health.report r.health
  end;
  Fmt.pr "%s@."
    (if r.ok then "transfers scenario: OK (100% integrity)"
     else "transfers scenario: FAILED");
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string_pretty (to_json r));
      output_string oc "\n";
      close_out oc;
      Fmt.pr "wrote %s@." path);
  r
