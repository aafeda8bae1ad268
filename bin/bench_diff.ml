(* bench_diff: compare two BENCH_*.json artifacts (bench/main.exe --json)
   and fail past a regression threshold.

   Usage: bench_diff OLD.json NEW.json [--threshold 0.25]
                                       [--strict-improvements]
                                       [--exempt PREFIX]...

   A benchmark regresses when new > old * (1 + threshold).  Benchmarks are
   the gate; registry counters are printed informationally (a counter shift
   means behaviour changed, which a timing gate should not conflate with
   being slower).  Improvements (new < old * (1 - threshold)) are reported
   in their own section: by default they never fail the diff, but a stale
   baseline stops guarding the improved rows — when an intentional speedup
   lands, regenerate the baseline (see README "Regenerating the bench
   baseline").  Under [--strict-improvements] a stale baseline is a
   failure, not a warning: improvements exit nonzero so the speedup PR
   must carry its regenerated baseline.  Machine-relative rows can be
   carved out of the strictness with [--exempt PREFIX] (repeatable): a
   row is exempt when the prefix matches the row name or any of its
   '/'-separated segments.  With no [--exempt] the historical default
   applies — rows under "sharded-" are exempt (their speed scales with
   the runner's core count, so a faster machine is not a stale
   baseline).

   The datapath audit's GC-measured [*per_datagram] columns are gated at
   the same threshold.  Exit status: 0 clean, 1 regression(s), 2 usage
   or parse error. *)

let usage () =
  prerr_endline
    "usage: bench_diff OLD.json NEW.json [--threshold FRACTION] \
     [--strict-improvements] [--exempt PREFIX]...";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_diff: " ^ m); exit 2) fmt

let load path =
  let ic = try open_in_bin path with Sys_error m -> fail "%s" m in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Fbsr_util.Json.parse s with
  | j -> j
  | exception Fbsr_util.Json.Parse_error m -> fail "%s: %s" path m

let obj_members name j =
  match Fbsr_util.Json.member name j with
  | Some (Fbsr_util.Json.Obj kvs) -> kvs
  | Some _ | None -> []

let schema j =
  match Fbsr_util.Json.member "schema" j with
  | Some (Fbsr_util.Json.String s) -> s
  | _ -> "?"

(* The compiler an artifact was built with: allocation and timing
   columns depend on it, so a diff names both sides' (an artifact older
   than the field has none). *)
let ocaml_version j =
  match Fbsr_util.Json.member "ocaml_version" j with
  | Some (Fbsr_util.Json.String s) -> s
  | _ -> "unrecorded"

let () =
  let threshold = ref 0.25 in
  let strict_improvements = ref false in
  let exempts = ref [] in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f >= 0.0 ->
            threshold := f;
            parse rest
        | _ -> fail "bad --threshold %S" v)
    | "--strict-improvements" :: rest ->
        strict_improvements := true;
        parse rest
    | "--exempt" :: v :: rest ->
        if v = "" then fail "empty --exempt prefix";
        exempts := v :: !exempts;
        parse rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        usage ()
    | arg :: rest ->
        files := arg :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let old_doc = load old_path and new_doc = load new_path in
  List.iter
    (fun (p, d) ->
      if schema d <> "fbsr-bench/1" then
        fail "%s: unexpected schema %S (want \"fbsr-bench/1\")" p (schema d))
    [ (old_path, old_doc); (new_path, new_doc) ];
  Printf.printf "ocaml_version: %s %s, %s %s\n\n" old_path (ocaml_version old_doc) new_path
    (ocaml_version new_doc);
  let old_benches = obj_members "benchmarks" old_doc in
  let new_benches = obj_members "benchmarks" new_doc in
  let regressions = ref 0 in
  let improvements = ref [] in
  (* Benchmark rows carry an absolute noise floor under the relative
     threshold, like the stage gates below: the nanosecond-scale rows
     (the ~12 ns LCG draw, the ~250 ns cache probes) move tens of
     nanoseconds between CI's reduced-iteration run and the committed
     full-run medians — loop-overhead amortization, not code — which at
     that scale is ±30% and flaps the gate in both directions.  150 ns
     (the same figure the paired telemetry gate uses for timer
     granularity) is invisible against every microsecond-scale row, so
     a real regression anywhere the datapath spends time still fails. *)
  let bench_floor_ns = 150.0 in
  Printf.printf "%-50s %12s %12s %9s\n" "benchmark" "old ns/op" "new ns/op" "delta";
  Printf.printf "%s\n" (String.make 86 '-');
  List.iter
    (fun (name, old_v) ->
      match
        (Fbsr_util.Json.to_float_opt old_v,
         Option.bind (List.assoc_opt name new_benches) Fbsr_util.Json.to_float_opt)
      with
      | Some old_ns, Some new_ns ->
          let delta =
            if old_ns > 0.0 then (new_ns -. old_ns) /. old_ns *. 100.0 else 0.0
          in
          let regressed =
            old_ns > 0.0
            && new_ns > old_ns *. (1.0 +. !threshold)
            && new_ns -. old_ns > bench_floor_ns
          in
          let improved =
            old_ns > 0.0
            && new_ns < old_ns *. (1.0 -. !threshold)
            && old_ns -. new_ns > bench_floor_ns
          in
          if regressed then incr regressions;
          if improved then improvements := (name, old_ns, new_ns, delta) :: !improvements;
          Printf.printf "%-50s %12.1f %12.1f %+8.1f%%%s\n" name old_ns new_ns delta
            (if regressed then "  REGRESSED"
             else if improved then "  improved"
             else "")
      | _ -> Printf.printf "%-50s (missing from %s)\n" name new_path)
    old_benches;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name old_benches) then
        Printf.printf "%-50s (new benchmark)\n" name)
    new_benches;
  (* Telemetry overhead: a paired gate within the NEW artifact alone.
     The artifact's "telemetry" object carries the interleaved same-run
     measurement of the batched-send row with and without the telemetry
     plane armed (heavy-hitter sketch observes, flight-recorder tick,
     health check per datagram) — pairing cancels machine speed
     entirely, so the armed twin must cost at most 5% on top of the
     plain one.  An absolute floor of 150 ns absorbs timer granularity
     at the row's microsecond scale. *)
  (let tel = obj_members "telemetry" new_doc in
   let jf name = Option.bind (List.assoc_opt name tel) Fbsr_util.Json.to_float_opt in
   match (jf "base_ns", jf "telemetry_ns") with
   | Some base_ns, Some tel_ns when base_ns > 0.0 ->
       let overhead = (tel_ns -. base_ns) /. base_ns *. 100.0 in
       let regressed = tel_ns > base_ns *. 1.05 && tel_ns -. base_ns > 150.0 in
       if regressed then incr regressions;
       Printf.printf "%-50s %12.1f %12.1f %+8.1f%%%s\n"
         "telemetry overhead (paired, new artifact)" base_ns tel_ns overhead
         (if regressed then "  REGRESSED (5% paired gate)" else "")
   | _ -> ());
  let contains_sub sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* Improvements: each one means the baseline no longer guards that row
     (a later slowdown back to the old speed would pass the gate
     unnoticed).  A warning by default; a failure under
     --strict-improvements, so speedup PRs ship a fresh baseline.
     Machine-relative rows (by default the sharded ones — a beefier
     runner improves them without any code change) stay warnings even
     under strict, via the --exempt prefixes. *)
  let exempt_prefixes =
    match List.rev !exempts with [] -> [ "sharded-" ] | l -> l
  in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let exempted name =
    List.exists
      (fun p ->
        starts_with p name
        || List.exists (starts_with p) (String.split_on_char '/' name))
      exempt_prefixes
  in
  let stale = ref 0 in
  (match List.rev !improvements with
  | [] -> ()
  | imps ->
      let strictable, exempt =
        List.partition (fun (name, _, _, _) -> not (exempted name)) imps
      in
      Printf.printf "\n%d benchmark(s) improved beyond -%.0f%% (baseline is stale for these):\n"
        (List.length imps)
        (100.0 *. !threshold);
      List.iter
        (fun (name, old_ns, new_ns, delta) ->
          Printf.printf "  %-48s %12.1f -> %.1f  (%+.1f%%)\n" name old_ns new_ns delta)
        imps;
      if !strict_improvements then begin
        stale := List.length strictable;
        if exempt <> [] then
          Printf.printf
            "  (%d row(s) exempt from --strict-improvements via prefix \
             exemption [%s]: machine-relative speed)\n"
            (List.length exempt)
            (String.concat ", " exempt_prefixes)
      end;
      Printf.printf
        "  if intentional, regenerate the committed baseline (README: \"Regenerating the bench baseline\")\n");
  (* Datapath allocation audit: gated at the same threshold when both
     artifacts carry it.  Only the per-datagram fields (GC-allocated bytes
     per round trip, engine and reference) are gated; the fixture-shape
     fields (payload size, iteration count) are informational. *)
  let old_datapath = obj_members "datapath" old_doc in
  let new_datapath = obj_members "datapath" new_doc in
  let gated name = contains_sub "per_datagram" name in
  if old_datapath <> [] && new_datapath <> [] then begin
    Printf.printf "\n%-50s %12s %12s %9s\n" "datapath" "old" "new" "delta";
    Printf.printf "%s\n" (String.make 86 '-');
    List.iter
      (fun (name, old_v) ->
        match
          (Fbsr_util.Json.to_float_opt old_v,
           Option.bind (List.assoc_opt name new_datapath) Fbsr_util.Json.to_float_opt)
        with
        | Some old_x, Some new_x when gated name ->
            let delta =
              if old_x > 0.0 then (new_x -. old_x) /. old_x *. 100.0 else 0.0
            in
            let regressed = old_x > 0.0 && new_x > old_x *. (1.0 +. !threshold) in
            if regressed then incr regressions;
            Printf.printf "%-50s %12.1f %12.1f %+8.1f%%%s\n" name old_x new_x delta
              (if regressed then "  REGRESSED" else "")
        | _ -> ())
      old_datapath
  end
  else if new_datapath <> [] then
    Printf.printf "\ndatapath audit present only in %s (not gated)\n" new_path;
  (* Per-stage span latencies (p50/p99 of wall-clock stage cost): gated
     like benchmarks, but with a per-column absolute noise floor on top of
     the relative threshold.  The medians are quantized at the clock
     granularity (~1 us), so a floor of two quanta absorbs quantization
     flips; the p99s are near-max statistics over only a few hundred
     samples, where a single GC pause or scheduler blip moves the tail by
     tens of microseconds, so their floor is a quarter millisecond —
     the gate still catches order-of-magnitude tail regressions. *)
  let old_stages = obj_members "stages" old_doc in
  let new_stages = obj_members "stages" new_doc in
  if old_stages <> [] && new_stages <> [] then begin
    Printf.printf "\n%-50s %12s %12s %9s\n" "stage (p50/p99 ns)" "old" "new" "delta";
    Printf.printf "%s\n" (String.make 86 '-');
    List.iter
      (fun (stage, old_v) ->
        match List.assoc_opt stage new_stages with
        | None -> Printf.printf "%-50s (missing from %s)\n" stage new_path
        | Some new_v ->
            List.iter
              (fun (field, floor_ns) ->
                match
                  ( Option.bind (Fbsr_util.Json.member field old_v)
                      Fbsr_util.Json.to_float_opt,
                    Option.bind (Fbsr_util.Json.member field new_v)
                      Fbsr_util.Json.to_float_opt )
                with
                | Some old_x, Some new_x ->
                    let delta =
                      if old_x > 0.0 then (new_x -. old_x) /. old_x *. 100.0
                      else 0.0
                    in
                    let regressed =
                      old_x > 0.0
                      && new_x > old_x *. (1.0 +. !threshold)
                      && new_x -. old_x > floor_ns
                    in
                    if regressed then incr regressions;
                    Printf.printf "%-50s %12.1f %12.1f %+8.1f%%%s\n"
                      (stage ^ "." ^ field) old_x new_x delta
                      (if regressed then "  REGRESSED" else "")
                | _ -> ())
              [ ("p50_ns", 2_000.0); ("p99_ns", 250_000.0) ])
      old_stages;
    List.iter
      (fun (stage, _) ->
        if not (List.mem_assoc stage old_stages) then
          Printf.printf "%-50s (new stage)\n" stage)
      new_stages
  end
  else if new_stages <> [] then
    Printf.printf "\nstage latencies present only in %s (not gated)\n" new_path;
  (* Counters: informational, with one exception.  The MAC-midstate
     cache counters come from a deterministic adversarial-network run
     (fixed seed, fixed message count), so [fbs.engine.macmid.*] is an
     exact both-direction gate: any drift
     means the per-flow midstate cache changed shape — more misses says
     midstates stopped surviving in the flow entries, more hits says the
     workload (and thus the whole artifact) changed — and the committed
     baseline must be re-examined, not absorbed. *)
  let counter_exact name =
    let p = "fbs.engine.macmid." in
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  let old_counters = obj_members "counters" old_doc in
  let new_counters = obj_members "counters" new_doc in
  let changed =
    List.filter_map
      (fun (name, v) ->
        match List.assoc_opt name old_counters with
        | Some v' when v' <> v -> Some (name, v', v)
        | Some _ -> None
        | None -> Some (name, Fbsr_util.Json.Null, v))
      new_counters
  in
  if changed <> [] then begin
    let gated, info = List.partition (fun (name, _, _) -> counter_exact name) changed in
    if info <> [] then begin
      Printf.printf "\ncounters that differ (informational, not gated):\n";
      List.iter
        (fun (name, o, n) ->
          Printf.printf "  %-48s %s -> %s\n" name
            (Fbsr_util.Json.to_string o) (Fbsr_util.Json.to_string n))
        info
    end;
    if gated <> [] then begin
      Printf.printf "\ncounters that differ (exact gate):\n";
      List.iter
        (fun (name, o, n) ->
          incr regressions;
          Printf.printf "  %-48s %s -> %s  REGRESSED (exact gate)\n" name
            (Fbsr_util.Json.to_string o) (Fbsr_util.Json.to_string n))
        gated
    end
  end;
  (* Sharded throughput.  The per-shard-count ns/op rows ride through
     the benchmarks gate above; here the contention tail is gated like
     the stage p99s (relative threshold plus the quarter-millisecond
     tail-noise floor), and the new artifact's own 4-shard-vs-1-shard
     scaling is asserted — but only when that artifact reports real
     parallelism and at least 4 cores, so single-core and 4.14
     (single-shard shim) runs don't fail a gate they cannot meet. *)
  let jfloat j name =
    Option.bind (Fbsr_util.Json.member name j) Fbsr_util.Json.to_float_opt
  in
  let row_dps j n =
    Option.bind (Fbsr_util.Json.member "rows" j) (fun rows ->
        Option.bind
          (Fbsr_util.Json.member (string_of_int n) rows)
          (fun r -> jfloat r "datagrams_per_sec"))
  in
  (match
     ( Fbsr_util.Json.member "sharded" old_doc,
       Fbsr_util.Json.member "sharded" new_doc )
   with
  | Some osh, Some nsh ->
      Printf.printf "\n%-50s %12s %12s %9s\n" "sharded" "old" "new" "delta";
      Printf.printf "%s\n" (String.make 86 '-');
      (match (jfloat osh "seal_p99_ns_4shard", jfloat nsh "seal_p99_ns_4shard") with
      | Some old_x, Some new_x ->
          let delta =
            if old_x > 0.0 then (new_x -. old_x) /. old_x *. 100.0 else 0.0
          in
          let regressed =
            old_x > 0.0
            && new_x > old_x *. (1.0 +. !threshold)
            && new_x -. old_x > 250_000.0
          in
          if regressed then incr regressions;
          Printf.printf "%-50s %12.1f %12.1f %+8.1f%%%s\n" "seal_p99_ns_4shard"
            old_x new_x delta
            (if regressed then "  REGRESSED" else "")
      | _ -> ());
      let parallel =
        match Fbsr_util.Json.member "parallel" nsh with
        | Some (Fbsr_util.Json.Bool b) -> b
        | _ -> false
      in
      let cores =
        match Fbsr_util.Json.member "cores" nsh with
        | Some (Fbsr_util.Json.Int i) -> i
        | _ -> 0
      in
      (match (row_dps nsh 1, row_dps nsh 4) with
      | Some d1, Some d4 when parallel && cores >= 4 ->
          if d4 < 2.0 *. d1 then begin
            incr regressions;
            Printf.printf
              "%-50s %12.0f %12.0f      REGRESSED (scaling gate: 4-shard < \
               2x 1-shard dps)\n"
              "scaling 1-shard vs 4-shard dps" d1 d4
          end
          else
            Printf.printf "%-50s %12.0f %12.0f      ok (>= 2x)\n"
              "scaling 1-shard vs 4-shard dps" d1 d4
      | _ ->
          Printf.printf
            "scaling gate skipped (parallel=%b cores=%d in %s)\n" parallel
            cores new_path)
  | None, Some _ ->
      Printf.printf "\nsharded rows present only in %s (not gated)\n" new_path
  | _ -> ());
  if !regressions > 0 || !stale > 0 then begin
    if !regressions > 0 then
      Printf.printf "\n%d benchmark(s) regressed beyond +%.0f%%\n" !regressions
        (100.0 *. !threshold);
    if !stale > 0 then
      Printf.printf
        "\n%d benchmark(s) improved beyond -%.0f%% with --strict-improvements \
         set: regenerate BENCH_baseline.json in this PR\n"
        !stale
        (100.0 *. !threshold);
    exit 1
  end
  else Printf.printf "\nno regressions beyond +%.0f%%\n" (100.0 *. !threshold)
