(* fbs-experiments: command-line driver around [Fbsr_experiments]. *)

open Fbsr_experiments.Experiments
open Cmdliner

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Trace generator seed.")

let duration_arg =
  Arg.(
    value
    & opt float (4.0 *. 3600.0)
    & info [ "duration" ] ~doc:"Trace duration in simulated seconds.")

let bytes_arg =
  Arg.(
    value & opt int 2_000_000
    & info [ "bytes" ] ~doc:"Bytes to transfer in the Figure 8 runs.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the headline counters as a JSON artifact to $(docv).")

let spans_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"PATH"
        ~doc:
          "Enable per-datagram causal tracing and write the hostile run's \
           spans as an fbsr-spans/1 JSON artifact to $(docv) (feed it to \
           fbs-tracedump).")

let metrics_text_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-text" ] ~docv:"PATH"
        ~doc:
          "Write the sweep's metrics registry in Prometheus text exposition \
           format to $(docv).")

let telemetry_arg =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:
          "Arm the telemetry plane: flight-recorder time-series over the \
           run's metrics, health-rule verdicts in the output, and a \
           'telemetry' member (fbsr-timeseries/1 + fbsr-health/1) in the \
           JSON artifact.")

let cmd name doc f = Cmd.v (Cmd.info name ~doc) f

let with_trace_args f =
  Term.(const (fun seed duration -> f ~seed ~duration ()) $ seed_arg $ duration_arg)

let commands =
  [
    cmd "crypto-table" "Crypto primitive throughput (Section 7.2 numbers)"
      Term.(const crypto_table $ const ());
    cmd "fig8" "Figure 8: FBS vs GENERIC throughput"
      Term.(const (fun bytes -> fig8 ~bytes ()) $ bytes_arg);
    cmd "fig9" "Figure 9: flow sizes" (with_trace_args fig9);
    cmd "fig10" "Figure 10: flow durations" (with_trace_args fig10);
    cmd "fig11" "Figure 11: cache miss rates" (with_trace_args fig11);
    cmd "fig12" "Figure 12: active flows over time" (with_trace_args fig12);
    cmd "fig13" "Figure 13: active flows vs THRESHOLD" (with_trace_args fig13);
    cmd "fig14" "Figure 14: repeated flows vs THRESHOLD" (with_trace_args fig14);
    cmd "ablation-hash" "Cache hash-function ablation" (with_trace_args ablation_hash);
    cmd "ablation-assoc" "Cache associativity ablation" (with_trace_args ablation_assoc);
    cmd "ablation-keying" "Per-flow vs per-datagram keying cost"
      Term.(const ablation_keying $ const ());
    cmd "ablation-mac" "Prefix MAC vs HMAC" Term.(const ablation_mac $ const ());
    cmd "www-flows" "Flow characteristics of the WWW-server trace"
      (with_trace_args www_flows);
    cmd "ablation-window" "Replay freshness window sweep"
      Term.(const ablation_replay_window $ const ());
    cmd "ablation-fused" "Single-pass MAC+encrypt vs two passes"
      Term.(const ablation_fused $ const ());
    cmd "ablation-fstsize" "FST size vs hash collisions (footnote 11)"
      (with_trace_args ablation_fstsize);
    cmd "ablation-replacement" "Cache replacement policy (Section 5.3)"
      (with_trace_args ablation_replacement);
    cmd "live-site" "Drive the campus workload through real FBS stacks"
      Term.(const (fun seed -> live_site ~seed ()) $ seed_arg);
    cmd "faults" "Datagram delivery and forgery rejection over faulty links"
      Term.(
        const (fun seed json spans_out metrics_text telemetry ->
            faults ?json ?spans_out ?metrics_text ~telemetry ~seed ())
        $ seed_arg $ json_arg $ spans_arg $ metrics_text_arg $ telemetry_arg);
    cmd "zipf"
      "Million-flow Zipf workload over the domain-sharded engine (exits \
       non-zero on any per-shard invariant violation)"
      Term.(
        const (fun flows datagrams batch shards seed fst_bits miss_curve
                   sweep_study telemetry json ->
            if miss_curve then (
              (* Sweep the fig11-14 analogue up to --flows; --datagrams is
                 the per-point budget (default 200k). *)
              let points =
                List.filter
                  (fun p -> p < flows)
                  Fbsr_experiments.Zipf_scenario.default_points
                @ [ flows ]
              in
              let c =
                Fbsr_experiments.Zipf_scenario.curve_report ~points
                  ?datagrams ~batch ?nshards:shards ~seed ~fst_bits ?json ()
              in
              if not c.Fbsr_experiments.Zipf_scenario.curve_ok then
                Stdlib.exit 1)
            else if sweep_study then (
              let s =
                Fbsr_experiments.Zipf_scenario.sweep_study_report
                  ?datagrams ?nshards:shards ~seed ?json ()
              in
              if not s.Fbsr_experiments.Zipf_scenario.sw_ok then
                Stdlib.exit 1)
            else
              let r =
                Fbsr_experiments.Zipf_scenario.report ~flows
                  ~datagrams:(Option.value datagrams ~default:1_000_000)
                  ~batch ?nshards:shards ~seed ~fst_bits ~telemetry ?json ()
              in
              if not r.Fbsr_experiments.Zipf_scenario.ok then Stdlib.exit 1)
        $ Arg.(
            value & opt int 1_000_000
            & info [ "flows" ]
                ~doc:
                  "Concurrent Zipf-distributed flows (with --miss-curve: the \
                   sweep ceiling).")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "datagrams" ]
                ~doc:
                  "Datagrams to round-trip (default 1,000,000; with \
                   --miss-curve: per sweep point, default 200,000).")
        $ Arg.(
            value & opt int 4096
            & info [ "batch" ] ~doc:"Datagrams per sharded dispatch batch.")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "shards" ]
                ~doc:
                  "Shard count (default: the runtime's recommended domain \
                   count; without Domains the shards run one after another).")
        $ Arg.(value & opt int 20260808 & info [ "seed" ] ~doc:"Workload seed.")
        $ Arg.(
            value & opt int 19
            & info [ "fst-bits" ]
                ~doc:"Dispatcher FST size as a power of two.")
        $ Arg.(
            value & flag
            & info [ "miss-curve" ]
                ~doc:
                  "Instead of one run, sweep active flows vs TFKC/RFKC miss \
                   rate (the Section 7.3 figure 11-14 analogue) and emit one \
                   row per point.")
        $ Arg.(
            value & flag
            & info [ "sweep-study" ]
                ~doc:
                  "Instead of one run, study FAM sweeper cadence under Zipf \
                   skew: occupancy vs restart-and-rekey churn at several \
                   cadences (fbsr-sweep-study/1 artifact).  --datagrams is \
                   the per-point budget (default 120,000).")
        $ telemetry_arg $ json_arg);
    cmd "transfers"
      "Hundreds of concurrent ACK-clocked bulk transfers across a shared \
       lossy segment (exits non-zero unless every transfer is delivered \
       intact and closed)"
      Term.(
        const (fun transfers bytes loss seed telemetry json ->
            let r =
              Fbsr_experiments.Transfers_scenario.report ~transfers
                ~bytes_per_transfer:bytes ~loss ~seed ~telemetry ?json ()
            in
            if not r.Fbsr_experiments.Transfers_scenario.ok then Stdlib.exit 1)
        $ Arg.(
            value & opt int 200
            & info [ "transfers" ] ~doc:"Concurrent connections.")
        $ Arg.(
            value & opt int 32_768
            & info [ "bytes-per-transfer" ] ~doc:"Payload bytes per connection.")
        $ Arg.(
            value & opt float 0.01
            & info [ "loss" ] ~doc:"Per-frame drop probability on every link.")
        $ Arg.(
            value & opt int 20260809 & info [ "seed" ] ~doc:"Fault-link seed.")
        $ telemetry_arg $ json_arg);
    cmd "all" "Run every experiment"
      Term.(
        const (fun seed duration bytes json -> run_all ?json seed duration bytes)
        $ seed_arg $ duration_arg $ bytes_arg $ json_arg);
  ]

let () =
  let info = Cmd.info "fbs-experiments" ~doc:"Regenerate the paper's figures" in
  exit (Cmd.eval (Cmd.group info commands))
