(* fbs-experiments: regenerate every figure of the paper's evaluation
   (Section 7.3), plus the ablations DESIGN.md calls out.

   One subcommand per figure; `all` runs everything.  Output is the
   series/rows each figure plots, as aligned text tables.  EXPERIMENTS.md
   records a reference run and compares it against the paper. *)

open Fbsr_netsim
open Fbsr_fbs_ip

let pf = Printf.printf

let section title =
  pf "\n================================================================\n";
  pf "%s\n" title;
  pf "================================================================\n"

(* ------------------------------------------------------------------ *)
(* Crypto throughput (the CryptoLib numbers quoted in Section 7.2).    *)
(* ------------------------------------------------------------------ *)

(* Bytes per second of [f] over a window of [seconds]. *)
let time_throughput ?(seconds = 0.3) f ~bytes =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    f ();
    incr reps
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  float_of_int (!reps * bytes) /. elapsed

(* Two rows compared with each other share the 0.6 s that two windows
   of [time_throughput] take, alternating in 15 ms windows (which row
   goes first alternates too) until it is spent, so a slow spell of a
   shared box lands on both rows; each row's rate is the median of its
   windows. *)
let time_pair f g ~bytes =
  let seconds = 0.015 in
  let rf = ref [] and rg = ref [] and i = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.6 do
    let a () = rf := time_throughput ~seconds f ~bytes :: !rf
    and b () = rg := time_throughput ~seconds g ~bytes :: !rg in
    if !i land 1 = 0 then (a (); b ()) else (b (); a ());
    incr i
  done;
  let median l = Fbsr_util.Stats.median (Array.of_list l) in
  (median !rf, median !rg)

let crypto_rates () =
  let buf = String.make 65536 'x' in
  let key = Fbsr_crypto.Des.of_string "01234567" in
  let iv = "abcdefgh" in
  let des_bps =
    time_throughput ~bytes:(String.length buf) (fun () ->
        ignore (Fbsr_crypto.Des.encrypt_cbc ~iv key buf))
  in
  let md5_bps =
    time_throughput ~bytes:(String.length buf) (fun () ->
        ignore (Fbsr_crypto.Md5.digest buf))
  in
  (des_bps, md5_bps)

let crypto_table () =
  section "Crypto primitive throughput (paper Section 7.2 quotes CryptoLib on a \
           Pentium 133: DES-CBC 549 kB/s, MD5 7060 kB/s)";
  let des, md5 = crypto_rates () in
  pf "%-12s %12s %18s\n" "primitive" "ours (kB/s)" "paper P133 (kB/s)";
  pf "%-12s %12.0f %18s\n" "des-cbc" (des /. 1e3) "549";
  pf "%-12s %12.0f %18s\n" "md5" (md5 /. 1e3) "7060";
  pf "ratio md5/des: ours %.1fx, paper %.1fx\n" (md5 /. des) (7060.0 /. 549.0)

(* ------------------------------------------------------------------ *)
(* Figure 8: ttcp-style throughput, GENERIC vs FBS NOP vs FBS DES+MD5. *)
(* ------------------------------------------------------------------ *)

type fig8_config = {
  label : string;
  security :
    [ `None
    | `Fbs of Fbsr_fbs.Suite.t * bool (* secret *)
    | `Hostpair of Fbsr_baselines.Hostpair.variant
    | `Kdc
    | `Photuris ];
}

(* Run one bulk transfer through the simulated stack; returns goodput in
   simulated bit/s (captures header overhead, MSS reduction, handshakes,
   MKD/KDC round trips, half-duplex ack traffic). *)
let ttcp_run config ~bytes =
  let tb_config secret suite =
    Stack.default_config ~suite
      ~secret_policy:(fun ~protocol ~src_port ~dst_port ->
        ignore (protocol, src_port, dst_port);
        secret)
      ()
  in
  let tb =
    match config.security with
    | `Fbs (suite, secret) -> Testbed.create ~config:(tb_config secret suite) ()
    | _ -> Testbed.create ()
  in
  let sender, receiver =
    match config.security with
    | `None | `Kdc | `Photuris ->
        ( Testbed.add_plain_host tb ~name:"sender" ~addr:"10.0.0.1",
          Testbed.add_plain_host tb ~name:"receiver" ~addr:"10.0.0.2" )
    | `Fbs _ ->
        let a = Testbed.add_host tb ~name:"sender" ~addr:"10.0.0.1" in
        let b = Testbed.add_host tb ~name:"receiver" ~addr:"10.0.0.2" in
        (a.Testbed.host, b.Testbed.host)
    | `Hostpair variant ->
        let a = Testbed.add_plain_host tb ~name:"sender" ~addr:"10.0.0.1" in
        let b = Testbed.add_plain_host tb ~name:"receiver" ~addr:"10.0.0.2" in
        let install host =
          let group = Testbed.group tb in
          let rng = Fbsr_util.Rng.create (Addr.to_int (Host.addr host)) in
          let private_value = Fbsr_crypto.Dh.gen_private group rng in
          let public = Fbsr_crypto.Dh.public group private_value in
          let authority = Testbed.authority tb in
          let (_ : Fbsr_cert.Certificate.t) =
            Fbsr_cert.Authority.enroll authority ~now:0.0
              ~subject:(Addr.to_string (Host.addr host))
              ~group:group.Fbsr_crypto.Dh.name
              ~public_value:(Fbsr_crypto.Dh.public_to_bytes group public)
          in
          let resolver peer k =
            match
              Fbsr_cert.Authority.lookup authority (Fbsr_fbs.Principal.to_string peer)
            with
            | Some c -> k (Ok c)
            | None -> k (Error "unknown")
          in
          ignore
            (Fbsr_baselines.Hostpair.install ~variant ~private_value ~group
               ~ca_public:(Fbsr_cert.Authority.public authority)
               ~resolver host)
        in
        install a;
        install b;
        (a, b)
  in
  (match config.security with
  | `Photuris ->
      let group = Testbed.group tb in
      ignore (Fbsr_baselines.Photuris.install ~group sender);
      ignore (Fbsr_baselines.Photuris.install ~group receiver)
  | `Kdc ->
      let kdc_host = Testbed.add_plain_host tb ~name:"kdc" ~addr:"10.0.0.50" in
      let server = Fbsr_baselines.Kdc.Server.install kdc_host in
      let enroll host =
        let key =
          Fbsr_baselines.Kdc.Server.enroll server
            ~name:(Addr.to_string (Host.addr host))
        in
        ignore
          (Fbsr_baselines.Kdc.install ~kdc_addr:(Host.addr kdc_host) ~shared_key:key
             host)
      in
      enroll sender;
      enroll receiver
  | _ -> ());
  let received = ref 0 in
  let start_time = ref 0.0 in
  let done_time = ref None in
  Minitcp.listen receiver ~port:5001 (fun conn ->
      Minitcp.on_receive conn (fun d -> received := !received + String.length d);
      Minitcp.on_close conn (fun () -> Minitcp.close conn));
  let conn = Minitcp.connect sender ~dst:(Host.addr receiver) ~dst_port:5001 in
  let payload = String.make 65536 'b' in
  Minitcp.on_established conn (fun () ->
      start_time := Testbed.now tb;
      let remaining = ref bytes in
      while !remaining > 0 do
        let n = min !remaining (String.length payload) in
        Minitcp.send conn (String.sub payload 0 n);
        remaining := !remaining - n
      done;
      Minitcp.close conn);
  Minitcp.on_close conn (fun () -> done_time := Some (Testbed.now tb));
  Testbed.run ~until:3600.0 tb;
  match !done_time with
  | Some t when !received >= bytes ->
      float_of_int (bytes * 8) /. (t -. !start_time)
  | _ -> nan

(* Per-byte crypto cost charged to the CPU model: [`Ours] uses this
   machine's measured rates, [`P133] the paper's CryptoLib rates. *)
let crypto_cost_per_byte ~rates config =
  let des_bps, md5_bps = rates in
  let des, md5 =
    match (config : [ `Ours | `P133 ]) with
    | `Ours -> (des_bps, md5_bps)
    | `P133 -> (549e3, 7060e3)
  in
  fun security ->
    match security with
    | `None -> 0.0
    | `Fbs (suite, secret) ->
        if Fbsr_fbs.Suite.is_nop suite then 0.0
        else (1.0 /. md5) +. (if secret then 1.0 /. des else 0.0)
    | `Hostpair _ -> (1.0 /. md5) +. (1.0 /. des)
    | `Kdc | `Photuris -> (1.0 /. md5) +. (1.0 /. des)

let fig8 ?(bytes = 2_000_000) () =
  section "Figure 8: throughput (ttcp-style bulk TCP transfer, 10 Mb/s shared \
           Ethernet segment)";
  let rates = crypto_rates () in
  let configs =
    [
      { label = "GENERIC"; security = `None };
      { label = "FBS NOP"; security = `Fbs (Fbsr_fbs.Suite.nop, true) };
      { label = "FBS MD5 (auth only)"; security = `Fbs (Fbsr_fbs.Suite.paper_md5_des, false) };
      { label = "FBS DES+MD5"; security = `Fbs (Fbsr_fbs.Suite.paper_md5_des, true) };
      { label = "Host-pair direct"; security = `Hostpair Fbsr_baselines.Hostpair.Direct };
      { label = "KDC session"; security = `Kdc };
      { label = "Photuris session"; security = `Photuris };
    ]
  in
  pf "%-24s %14s %16s %16s\n" "configuration" "wire (kb/s)" "eff-ours (kb/s)"
    "eff-P133 (kb/s)";
  let cost_ours = crypto_cost_per_byte ~rates `Ours in
  let cost_p133 = crypto_cost_per_byte ~rates `P133 in
  let chart_rows = ref [] in
  List.iter
    (fun config ->
      let wire_bps = ttcp_run config ~bytes in
      (* Per byte: 8/wire seconds on the wire + cpu seconds of crypto;
         they serialize on a mid-90s single-CPU host. *)
      let effective cost_fn =
        let cpu = cost_fn config.security in
        8.0 /. ((8.0 /. wire_bps) +. cpu)
      in
      chart_rows := (config.label, effective cost_p133 /. 1e3) :: !chart_rows;
      pf "%-24s %14.0f %16.0f %16.0f\n" config.label (wire_bps /. 1e3)
        (effective cost_ours /. 1e3)
        (effective cost_p133 /. 1e3))
    configs;
  pf "\neffective throughput at P133 crypto rates (kb/s):\n";
  Fbsr_util.Chart.hbar Fmt.stdout (List.rev !chart_rows);
  pf "\npaper: GENERIC 7700 kb/s, FBS NOP ~GENERIC, FBS DES+MD5 3400 kb/s\n"

(* ------------------------------------------------------------------ *)
(* Figures 9-14: flow characteristics over the campus LAN trace.       *)
(* ------------------------------------------------------------------ *)

let the_trace = ref None

let trace ~seed ~duration () =
  match !the_trace with
  | Some (s, d, t) when s = seed && d = duration -> t
  | _ ->
      let t = Fbsr_traffic.Scenario.campus_lan ~seed ~duration () in
      the_trace := Some (seed, duration, t);
      t

let pp_log_histogram label unit h =
  pf "%-24s %12s %10s %8s\n" label ("bucket (" ^ unit ^ ")") "flows" "cum%";
  let total =
    List.fold_left (fun acc (_, _, n) -> acc + n) 0 h.Fbsr_util.Stats.buckets
  in
  let cum = ref 0 in
  List.iter
    (fun (lo, hi, n) ->
      cum := !cum + n;
      pf "%-24s %5.0f-%-6.0f %10d %7.1f%%\n" "" lo hi n
        (100.0 *. float_of_int !cum /. float_of_int total))
    h.Fbsr_util.Stats.buckets

let fig9 ~seed ~duration () =
  section "Figure 9: flow size (campus LAN trace, THRESHOLD=600s)";
  let sc = trace ~seed ~duration () in
  let res = Fbsr_traffic.Flow_sim.run ~threshold:600.0 sc.Fbsr_traffic.Scenario.records in
  let pk = Fbsr_traffic.Flow_sim.sizes_packets res in
  let by = Fbsr_traffic.Flow_sim.sizes_bytes res in
  pf "flows: %d over %.0f s (%d datagrams)\n" (List.length res.Fbsr_traffic.Flow_sim.flows)
    res.Fbsr_traffic.Flow_sim.trace_duration res.Fbsr_traffic.Flow_sim.datagrams;
  pf "\n(a) packets per flow: median=%.0f mean=%.1f p90=%.0f p99=%.0f max=%.0f\n"
    (Fbsr_util.Stats.median pk)
    (Fbsr_util.Stats.summary pk).Fbsr_util.Stats.mean
    (Fbsr_util.Stats.percentile pk 90.0)
    (Fbsr_util.Stats.percentile pk 99.0)
    (Fbsr_util.Stats.summary pk).Fbsr_util.Stats.max;
  pp_log_histogram "packets/flow" "pkts" (Fbsr_util.Stats.log_histogram ~base:4.0 pk);
  Fbsr_util.Chart.hbar Fmt.stdout
    (List.map
       (fun (lo, hi, n) -> (Printf.sprintf "%.0f-%.0f pkts" lo hi, float_of_int n))
       (Fbsr_util.Stats.log_histogram ~base:4.0 pk).Fbsr_util.Stats.buckets);
  pf "\n(b) bytes per flow: median=%.0f p90=%.0f p99=%.0f max=%.0f\n"
    (Fbsr_util.Stats.median by)
    (Fbsr_util.Stats.percentile by 90.0)
    (Fbsr_util.Stats.percentile by 99.0)
    (Fbsr_util.Stats.summary by).Fbsr_util.Stats.max;
  pp_log_histogram "bytes/flow" "bytes" (Fbsr_util.Stats.log_histogram ~base:8.0 by);
  pf "\nconcentration: top 10%% of flows carry %.1f%% of bytes (paper: 'a few \
      long-lived flows carry the bulk of the traffic')\n"
    (100.0 *. Fbsr_traffic.Flow_sim.bytes_in_top res ~fraction:0.1)

let fig10 ~seed ~duration () =
  section "Figure 10: flow duration (campus LAN trace, THRESHOLD=600s)";
  let sc = trace ~seed ~duration () in
  let res = Fbsr_traffic.Flow_sim.run ~threshold:600.0 sc.Fbsr_traffic.Scenario.records in
  let d = Fbsr_traffic.Flow_sim.durations res in
  pf "duration (s): median=%.1f mean=%.1f p90=%.1f p99=%.1f max=%.1f\n"
    (Fbsr_util.Stats.median d)
    (Fbsr_util.Stats.summary d).Fbsr_util.Stats.mean
    (Fbsr_util.Stats.percentile d 90.0)
    (Fbsr_util.Stats.percentile d 99.0)
    (Fbsr_util.Stats.summary d).Fbsr_util.Stats.max;
  let short = Array.fold_left (fun n x -> if x < 60.0 then n + 1 else n) 0 d in
  pf "flows shorter than one minute: %.1f%% (paper: 'the majority of flows are \
      short')\n"
    (100.0 *. float_of_int short /. float_of_int (Array.length d))

let fig11 ~seed ~duration () =
  section "Figure 11: flow-key cache miss rate vs cache size (campus LAN trace)";
  let sc = trace ~seed ~duration () in
  let records = sc.Fbsr_traffic.Scenario.records in
  let sizes = [ 4; 8; 16; 32; 64; 128; 256; 512 ] in
  List.iter
    (fun side ->
      let side_name =
        match side with Fbsr_traffic.Cache_sim.Tfkc -> "TFKC" | _ -> "RFKC"
      in
      pf "\n(%s, direct-mapped, CRC-32 indexing)\n" side_name;
      pf "%8s %10s %10s %10s %10s\n" "entries" "miss rate" "cold" "capacity" "conflict";
      let rows =
        Fbsr_traffic.Cache_sim.size_sweep
          ~config:{ Fbsr_traffic.Cache_sim.default_config with side }
          ~sizes records
      in
      List.iter
        (fun r ->
          pf "%8d %9.2f%% %10d %10d %10d\n" r.Fbsr_traffic.Cache_sim.config.Fbsr_traffic.Cache_sim.sets
            (100.0 *. r.Fbsr_traffic.Cache_sim.miss_rate)
            r.Fbsr_traffic.Cache_sim.misses_cold r.Fbsr_traffic.Cache_sim.misses_capacity
            r.Fbsr_traffic.Cache_sim.misses_conflict)
        rows;
      Fbsr_util.Chart.hbar Fmt.stdout
        (List.map
           (fun r ->
             ( string_of_int r.Fbsr_traffic.Cache_sim.config.Fbsr_traffic.Cache_sim.sets,
               100.0 *. r.Fbsr_traffic.Cache_sim.miss_rate ))
           rows))
    [ Fbsr_traffic.Cache_sim.Tfkc; Fbsr_traffic.Cache_sim.Rfkc ];
  pf "\npaper: 'the cache miss rate drops off sharply even with reasonably small \
      cache sizes'\n"

let fig12 ~seed ~duration () =
  section "Figure 12: number of active flows over time (THRESHOLD=600s)";
  let sc = trace ~seed ~duration () in
  let res = Fbsr_traffic.Flow_sim.run ~threshold:600.0 sc.Fbsr_traffic.Scenario.records in
  let series = Fbsr_traffic.Flow_sim.active_series ~bin:300.0 res in
  pf "LAN-wide active flows per 5-minute bin:\n";
  pf "%10s %8s\n" "time (s)" "active";
  Array.iteri (fun i n -> if i mod 2 = 0 then pf "%10.0f %8d\n" (float_of_int i *. 300.0) n) series;
  pf "\n";
  Fbsr_util.Chart.timeseries Fmt.stdout ~x_label:"time (5-minute bins)"
    ~y_label:"active flows (LAN-wide)"
    (Array.map float_of_int series);
  let host, hseries, mean_peak = Fbsr_traffic.Flow_sim.active_series_per_host res in
  pf "\nper-host: busiest host %s peaks at %d simultaneous flows; mean per-host \
      peak %.1f\n"
    host
    (Array.fold_left max 0 hseries)
    mean_peak;
  pf "paper: 'the number of simultaneous active flows in a host are not \
      exceedingly high'\n"

let fig13 ~seed ~duration () =
  section "Figure 13: active flows for different THRESHOLDs";
  let sc = trace ~seed ~duration () in
  pf "%10s %8s %12s %14s %16s\n" "THRESHOLD" "flows" "avg active" "busiest-host" "mean host peak";
  List.iter
    (fun th ->
      let res = Fbsr_traffic.Flow_sim.run ~threshold:th sc.Fbsr_traffic.Scenario.records in
      let series = Fbsr_traffic.Flow_sim.active_series ~bin:60.0 res in
      let avg =
        float_of_int (Array.fold_left ( + ) 0 series) /. float_of_int (Array.length series)
      in
      let _, hseries, mean_peak = Fbsr_traffic.Flow_sim.active_series_per_host res in
      pf "%9.0fs %8d %12.1f %14d %16.1f\n" th
        (List.length res.Fbsr_traffic.Flow_sim.flows)
        avg
        (Array.fold_left max 0 hseries)
        mean_peak)
    [ 300.0; 600.0; 900.0; 1200.0; 1800.0 ];
  pf "\npaper: active flows increase 300->600s, then the policy becomes relatively \
      insensitive above ~900s\n"

let fig14 ~seed ~duration () =
  section "Figure 14: repeated flows (same 5-tuple split into multiple flows)";
  let chart = ref [] in
  let sc = trace ~seed ~duration () in
  pf "%10s %8s %10s %16s\n" "THRESHOLD" "flows" "repeated" "distinct tuples";
  List.iter
    (fun th ->
      let res = Fbsr_traffic.Flow_sim.run ~threshold:th sc.Fbsr_traffic.Scenario.records in
      let tcp_rep, udp_rep = Fbsr_traffic.Flow_sim.repeated_flows_by_protocol res in
      pf "%9.0fs %8d %10d %16d   (tcp %d / udp %d)\n" th
        (List.length res.Fbsr_traffic.Flow_sim.flows)
        (Fbsr_traffic.Flow_sim.repeated_flows res)
        (Fbsr_traffic.Flow_sim.distinct_tuples res)
        tcp_rep udp_rep;
      chart := (Printf.sprintf "%.0fs" th,
                float_of_int (Fbsr_traffic.Flow_sim.repeated_flows res)) :: !chart)
    [ 300.0; 600.0; 900.0; 1200.0; 1800.0 ];
  pf "\nrepeated flows vs THRESHOLD:\n";
  Fbsr_util.Chart.hbar Fmt.stdout (List.rev !chart);
  pf "\npaper: 'the number of repeated flows drops off quickly as THRESHOLD \
      increases'.\nTCP repeats are connections split into multiple flows (e.g. quiet \
      TELNET periods);\nUDP repeats are periodic NFS/DNS traffic re-keyed across \
      gaps — Section 7.1's\n'a connection may be broken up into multiple flows', \
      measured.\n"

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures.                               *)
(* ------------------------------------------------------------------ *)

let ablation_hash ~seed ~duration () =
  section "Ablation: cache index hash function (Section 5.3's argument for CRC-32)";
  let sc = trace ~seed ~duration () in
  let records = sc.Fbsr_traffic.Scenario.records in
  pf "%8s %12s %12s %12s\n" "entries" "crc32 miss" "modulo miss" "xor miss";
  List.iter
    (fun sets ->
      let run hash =
        (Fbsr_traffic.Cache_sim.run
           ~config:{ Fbsr_traffic.Cache_sim.default_config with sets; hash }
           records)
          .Fbsr_traffic.Cache_sim.miss_rate
      in
      pf "%8d %11.2f%% %11.2f%% %11.2f%%\n" sets
        (100.0 *. run Fbsr_traffic.Cache_sim.Crc32)
        (100.0 *. run Fbsr_traffic.Cache_sim.Modulo)
        (100.0 *. run Fbsr_traffic.Cache_sim.Xor_fold))
    [ 16; 64; 256 ];
  pf
    "\nReproduction note: with per-host caches and counter-allocated sfls, low-bit\n\
     'modulo' indexing is already uniform (sequential labels stripe the sets), so\n\
     CRC-32 does not win here.  The paper's concern applies when the index mixes\n\
     correlated fields (local addresses, ports) or when caches are shared; the\n\
     XOR-fold column, which mixes in addresses, degrades at larger sizes exactly\n\
     as Section 5.3 predicts.\n"

let ablation_assoc ~seed ~duration () =
  section "Ablation: cache associativity (conflict misses vs ways)";
  let sc = trace ~seed ~duration () in
  let records = sc.Fbsr_traffic.Scenario.records in
  pf "%8s %8s %12s %12s\n" "entries" "ways" "miss rate" "conflict";
  List.iter
    (fun (sets, assoc) ->
      let r =
        Fbsr_traffic.Cache_sim.run
          ~config:{ Fbsr_traffic.Cache_sim.default_config with sets; assoc }
          records
      in
      pf "%8d %8d %11.2f%% %12d\n" (sets * assoc) assoc
        (100.0 *. r.Fbsr_traffic.Cache_sim.miss_rate)
        r.Fbsr_traffic.Cache_sim.misses_conflict)
    [ (64, 1); (32, 2); (16, 4); (256, 1); (128, 2); (64, 4) ]

let ablation_keying () =
  section "Ablation: per-flow vs per-datagram keying cost (Section 2.2)";
  (* Cost of key material per datagram: FBS derives one flow key per flow
     (one MD5); per-datagram host-pair keying draws 8 cryptographically
     random bytes from BBS per datagram. *)
  let rng = Fbsr_util.Rng.create 5 in
  let bbs = Fbsr_crypto.Bbs.create ~modulus_bits:256 rng ~seed:"benchseed" in
  let t0 = Unix.gettimeofday () in
  let n_bbs = 200 in
  for _ = 1 to n_bbs do
    ignore (Fbsr_crypto.Bbs.bytes bbs 8)
  done;
  let bbs_per_key = (Unix.gettimeofday () -. t0) /. float_of_int n_bbs in
  let t0 = Unix.gettimeofday () in
  let n_md5 = 20000 in
  for _ = 1 to n_md5 do
    ignore (Fbsr_crypto.Md5.digest "0123456789abcdef0123456789abcdef0123456789")
  done;
  let md5_per_key = (Unix.gettimeofday () -. t0) /. float_of_int n_md5 in
  pf "flow key derivation (MD5):            %8.1f us per key, once per FLOW\n"
    (md5_per_key *. 1e6);
  pf "BBS per-datagram key (256-bit modulus): %8.1f us per key, once per DATAGRAM\n"
    (bbs_per_key *. 1e6);
  pf "=> at 30 packets per flow (trace median ~6-30), per-datagram keying costs \
      %.0fx more key-material CPU\n"
    (30.0 *. bbs_per_key /. md5_per_key)

let ablation_mac () =
  section "Ablation: prefix MAC (paper) vs HMAC (RFC 2104)";
  let key = String.make 16 'k' in
  let buf = String.make 1460 'd' in
  let t_prefix, t_hmac =
    time_pair ~bytes:1460
      (fun () -> ignore (Fbsr_crypto.Mac.prefix ~key [ buf ]))
      (fun () -> ignore (Fbsr_crypto.Mac.hmac ~key [ buf ]))
  in
  pf "prefix keyed-MD5: %8.0f kB/s\n" (t_prefix /. 1e3);
  pf "HMAC-MD5:         %8.0f kB/s (extra inner/outer passes)\n" (t_hmac /. 1e3);
  pf "HMAC costs %.0f%% more on MTU-sized datagrams; the FBS datapath keeps the \
      paper's prefix MAC.\n"
    (100.0 *. ((t_prefix /. t_hmac) -. 1.0))


(* Section 5.3: "Collision misses can be avoided by increasing the
   associativity of the cache, by using a better replacement policy, or by
   indexing the cache with a better hash function" — the replacement leg. *)
let ablation_replacement ~seed ~duration () =
  section "Ablation: cache replacement policy (Section 5.3)";
  let sc = trace ~seed ~duration () in
  let records = sc.Fbsr_traffic.Scenario.records in
  pf "%8s %6s %12s %12s %12s\n" "entries" "ways" "LRU miss" "FIFO miss" "random miss";
  List.iter
    (fun (sets, assoc) ->
      let run replacement =
        (Fbsr_traffic.Cache_sim.run
           ~config:{ Fbsr_traffic.Cache_sim.default_config with sets; assoc; replacement }
           records)
          .Fbsr_traffic.Cache_sim.miss_rate
      in
      pf "%8d %6d %11.2f%% %11.2f%% %11.2f%%\n" (sets * assoc) assoc
        (100.0 *. run Fbsr_fbs.Cache.Lru)
        (100.0 *. run Fbsr_fbs.Cache.Fifo)
        (100.0 *. run (Fbsr_fbs.Cache.Random (Fbsr_util.Rng.create 9))))
    [ (32, 2); (16, 4); (128, 2); (64, 4) ];
  pf
    "\nLRU edges out FIFO and random at every geometry, but the gap is small: the\n\
     packet-train access pattern gives any recency-ish policy most of the benefit,\n\
     consistent with Section 5.3's observation that low associativity 'reduces the\n\
     influence of the replacement policy'.\n"

(* Footnote 11: "a hash collision can prematurely terminate a flow.  This
   does not affect security though.  Also, almost no collision is observed
   with a reasonable FSTSIZE, e.g., 32 or above." *)
let ablation_fstsize ~seed ~duration () =
  section "Ablation: FST size vs hash collisions (footnote 11)";
  let sc = trace ~seed ~duration () in
  pf "%8s %10s %12s %22s\n" "FSTSIZE" "flows" "collisions" "collisions/datagram";
  List.iter
    (fun fst_size ->
      let res =
        Fbsr_traffic.Flow_sim.run ~threshold:600.0 ~fst_size
          sc.Fbsr_traffic.Scenario.records
      in
      pf "%8d %10d %12d %21.5f\n" fst_size
        (List.length res.Fbsr_traffic.Flow_sim.flows)
        res.Fbsr_traffic.Flow_sim.collisions
        (float_of_int res.Fbsr_traffic.Flow_sim.collisions
        /. float_of_int res.Fbsr_traffic.Flow_sim.datagrams))
    [ 8; 16; 32; 64; 256; 1024 ];
  pf
    "\nfootnote 11 holds for the desktops; the busy servers of a 1990s-scale LAN \
     want a\nfew hundred entries -- memory that 'is not very large compared to the \
     amount of\nmemory available in a modern kernel' even then.\n"

let ablation_fused () =
  section "Ablation: single-pass MAC+encrypt (Section 5.3 'one loop' suggestion)";
  let des_key = Fbsr_crypto.Des.of_string "k3yk3yk3" in
  let mac_key = String.make 16 'k' in
  pf "%10s %16s %16s %8s\n" "size" "two-pass (MB/s)" "fused (MB/s)" "gain";
  List.iter
    (fun size ->
      let payload = String.make size 'd' in
      let two, fused =
        time_pair ~bytes:size
          (fun () ->
            ignore
              (Fbsr_crypto.Fused.mac_then_encrypt ~mac_key ~des_key ~iv:"initvect"
                 ~prefix_parts:[ "c"; "t" ] payload))
          (fun () ->
            ignore
              (Fbsr_crypto.Fused.mac_and_encrypt ~mac_key ~des_key ~iv:"initvect"
                 ~prefix_parts:[ "c"; "t" ] payload))
      in
      pf "%9dB %16.2f %16.2f %7.1f%%\n" size (two /. 1e6) (fused /. 1e6)
        (100.0 *. ((fused /. two) -. 1.0)))
    [ 1460; 65536; 1048576 ];
  pf
    "\nBoth produce bit-identical (MAC, ciphertext).  The fused column runs MD5 \
     inside the\nDES-CBC loop, one compression beside every four cipher blocks: \
     MD5's serial chain\nfills the issue slots the CBC chain leaves idle, so the \
     MAC costs a fraction of its\ntwo-pass price and the fused rate approaches \
     DES-CBC's alone.  Each column is\nthe median of 15 ms windows alternating \
     with the other's over 0.6 s.  Folding in the\nother data-touching passes \
     (checksums, copies), the paper's fuller suggestion, is not\nattempted.\n"

(* The paper's second trace environment: the lightly-hit WWW server. *)
let www_flows ~seed ~duration () =
  section "WWW server trace (the paper's second environment, ~10k hits/day)";
  let sc = Fbsr_traffic.Scenario.www_server ~seed ~duration () in
  let records = sc.Fbsr_traffic.Scenario.records in
  pf "%d datagrams over %.0f s from %d client hosts\n"
    (Fbsr_traffic.Record.count records) duration
    (List.length sc.Fbsr_traffic.Scenario.hosts - 1);
  let res = Fbsr_traffic.Flow_sim.run ~threshold:600.0 records in
  let pk = Fbsr_traffic.Flow_sim.sizes_packets res in
  let d = Fbsr_traffic.Flow_sim.durations res in
  pf "flows: %d; packets/flow median=%.0f p99=%.0f; duration median=%.1fs p99=%.1fs\n"
    (List.length res.Fbsr_traffic.Flow_sim.flows)
    (Fbsr_util.Stats.median pk)
    (Fbsr_util.Stats.percentile pk 99.0)
    (Fbsr_util.Stats.median d)
    (Fbsr_util.Stats.percentile d 99.0);
  Fbsr_util.Chart.hbar Fmt.stdout
    (List.map
       (fun (lo, hi, n) -> (Printf.sprintf "%.0f-%.0f pkts" lo hi, float_of_int n))
       (Fbsr_util.Stats.log_histogram ~base:4.0 pk).Fbsr_util.Stats.buckets);
  let host, hseries, _ = Fbsr_traffic.Flow_sim.active_series_per_host res in
  pf "server-side active flows (host %s): peak %d\n" host (Array.fold_left max 0 hseries);
  pf "WWW traffic is the short-flow extreme: almost every conversation is a few \
     packets, reinforcing the case for datagram semantics.\n"

(* Replay window sweep: the Section 6.2 trade-off between clock-skew
   tolerance and the replay-acceptance window. *)
let ablation_replay_window () =
  section "Ablation: replay freshness window (Section 6.2 trade-off)";
  pf "%12s %22s %22s\n" "window (min)" "skew 90s accepted?" "replay +5min accepted?";
  List.iter
    (fun window_minutes ->
      let p =
        Fixture.engine_pair ~seed:61 ~replay_window_minutes:window_minutes
          ~src:"10.0.0.1" ~dst:"10.0.0.2" ()
      in
      let attrs =
        Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2
          ~src:p.Fixture.src ~dst:p.Fixture.dst ()
      in
      let wire =
        Result.get_ok
          (Fbsr_fbs.Engine.send_sync p.Fixture.sender ~now:600.0 ~attrs
             ~secret:true ~payload:"x")
      in
      let accepted_at recv_now =
        match
          Fbsr_fbs.Engine.receive_sync p.Fixture.receiver ~now:recv_now
            ~src:p.Fixture.src ~wire
        with
        | Ok _ -> "yes"
        | Error _ -> "no"
      in
      pf "%12d %22s %22s\n" window_minutes (accepted_at 690.0) (accepted_at 900.0))
    [ 0; 1; 2; 5; 10 ];
  pf "\nsmall windows reject replays sooner but demand tighter clock sync; the \
     paper picks minutes-scale windows and defers exact replay protection to \
     higher layers.\n"

(* The live-site run: the workload through REAL stacks, cross-checking the
   offline cache simulator's Figure 11 predictions against measured cache
   behaviour. *)
let live_site ~seed () =
  section "Live site: the campus workload through real FBS stacks";
  let duration = 1800.0 and desktops = 6 in
  let scenario = Fbsr_traffic.Scenario.campus_lan ~seed ~duration ~desktops () in
  pf "%d datagrams over %.0f s, %d hosts — every one through real \
      FBSSend()/FBSReceive()\n"
    (Fbsr_traffic.Record.count scenario.Fbsr_traffic.Scenario.records)
    duration
    (List.length scenario.Fbsr_traffic.Scenario.hosts);
  pf "\n%8s %12s %12s %14s %14s\n" "entries" "live TFKC" "sim TFKC" "live RFKC"
    "sim RFKC";
  List.iter
    (fun sets ->
      let live =
        Live_site.run ~seed ~duration ~desktops ~tfkc_sets:sets
          ~rfkc_sets:sets ()
      in
      let sim side =
        (Fbsr_traffic.Cache_sim.run
           ~config:{ Fbsr_traffic.Cache_sim.default_config with sets; side }
           scenario.Fbsr_traffic.Scenario.records)
          .Fbsr_traffic.Cache_sim.miss_rate
      in
      pf "%8d %11.2f%% %11.2f%% %13.2f%% %13.2f%%\n" sets
        (100.0 *. (1.0 -. live.Live_site.tfkc_hit_rate))
        (100.0 *. sim Fbsr_traffic.Cache_sim.Tfkc)
        (100.0 *. (1.0 -. live.Live_site.rfkc_hit_rate))
        (100.0 *. sim Fbsr_traffic.Cache_sim.Rfkc))
    [ 16; 64 ];
  let live = Live_site.run ~seed ~duration ~desktops () in
  pf "\nend-to-end: %d/%d datagrams delivered; %d flows; %d certificate fetches; \
      %d DH computations; %d MACs; %d MAC failures\n"
    live.Live_site.datagrams_delivered
    live.Live_site.datagrams_sent
    live.Live_site.flows_started
    live.Live_site.mkd_fetches
    live.Live_site.master_key_computations
    live.Live_site.macs
    live.Live_site.mac_failures;
  pf "the offline simulator (the paper's methodology) and the live protocol agree \
      on the miss-rate shape.\n"

let faults ?json ?spans_out ?metrics_text ?telemetry ~seed () =
  Faults.report ~seed ?json ?spans_out ?metrics_text ?telemetry ()

let run_all ?json seed duration bytes =
  crypto_table ();
  fig8 ~bytes ();
  fig9 ~seed ~duration ();
  fig10 ~seed ~duration ();
  fig11 ~seed ~duration ();
  fig12 ~seed ~duration ();
  fig13 ~seed ~duration ();
  fig14 ~seed ~duration ();
  ablation_hash ~seed ~duration ();
  ablation_assoc ~seed ~duration ();
  ablation_keying ();
  ablation_mac ();
  ablation_fstsize ~seed ~duration ();
  ablation_replacement ~seed ~duration ();
  ablation_fused ();
  www_flows ~seed ~duration ();
  ablation_replay_window ();
  live_site ~seed ();
  faults ?json ~seed ()
