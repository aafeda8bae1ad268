(* fbsr end-to-end benchmark.

     main.exe --workload W --seed S [--seconds N] [--trace 0|1]
              [--json OUT] [--spans DIR]
       One run of one workload, in this process.  Prints one line per
       metric, "<workload> <metric> <value> <unit>", then a one-line JSON
       result; exits 1 if any correctness check failed.

     main.exe --seed S [--runs N] [--seconds N] [--json OUT] [--spans DIR]
       Every workload BENCHMARK.json lists, untraced then traced, each run
       in a child process of its own so heap and GC numbers stay per
       workload.  [--runs N] repeats the set with seeds S .. S+N-1.

     main.exe compare A.json B.json [--benchmark BENCHMARK.json]
       Per workload and end-to-end metric, both sides' median and IQR and
       the verdict under the bound BENCHMARK.json fixes; exits 1 on a
       regression.

   [--seconds N] (default 20; a run of the BENCHMARK.json command gets its
   run_seconds as --seconds) sizes the measured phase: a fixed op
   count that takes about N seconds on a 2-core x86-64 machine, never a
   duration, so counters repeat exactly for a seed.  The run measures it
   in rounds, each with a set-up of its own (see Run.rounds).  [--scale X]
   shrinks the warm-up and the measured phase, and the number of rounds,
   for the test suite's smoke run (0.01). *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--runs N]\n\
    \                [--scale X] [--json OUT] [--spans DIR]\n\
    \       main.exe compare A.json B.json [--benchmark BENCHMARK.json]";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool option;
  mutable runs : int;
  mutable scale : float;
  mutable json : string option;
  mutable spans : string option;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 20.0;
      trace = None;
      runs = 1;
      scale = 1.0;
      json = None;
      spans = None;
    }
  in
  let number f s = match f s with Some v -> v | None -> fail "bad number %S" s in
  let rec go = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if Workloads.find w = None then fail "unknown workload %S" w;
        o.workload <- Some w;
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- number int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- number float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        o.trace <- Some (t = "1");
        go rest
    | "--runs" :: s :: rest ->
        o.runs <- number int_of_string_opt s;
        go rest
    | "--scale" :: s :: rest ->
        o.scale <- number float_of_string_opt s;
        go rest
    | "--json" :: p :: rest ->
        o.json <- Some p;
        go rest
    | "--spans" :: d :: rest ->
        o.spans <- Some d;
        go rest
    | _ -> usage ()
  in
  let o = go args in
  if o.seconds <= 0.0 || o.scale <= 0.0 || o.runs < 1 then fail "sizes must be positive";
  o

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let run_one o w traced =
  let r = Run.run w ~seed:o.seed ~seconds:o.seconds ~scale:o.scale ~traced in
  Report.print_lines r;
  (match o.json with
  | Some path -> write_file path (Fbsr_util.Json.to_string (Report.document [ Report.run_json r ]))
  | None -> ());
  (match o.spans with
  | Some dir when traced ->
      write_file
        (Filename.concat dir (w.Run.name ^ ".json"))
        (Fbsr_util.Json.to_string (Fbsr_util.Span.to_json (Probe.collected_spans ())))
  | _ -> ());
  print_endline (Report.result_line r);
  exit (if Run.correct r then 0 else 1)

(* Every workload, untraced then traced, each in a child process. *)
let run_all o =
  let ok = ref true and docs = ref [] in
  for i = 0 to o.runs - 1 do
    let seed = o.seed + i in
    List.iter
      (fun (w : Run.workload) ->
        List.iter
          (fun traced ->
            let part =
              Option.map (fun p -> Printf.sprintf "%s.%s.%d.%b.part" p w.name seed traced) o.json
            in
            let args =
              [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
                Printf.sprintf "%.17g" o.seconds; "--scale"; Printf.sprintf "%.17g" o.scale;
                "--trace"; (if traced then "1" else "0") ]
              @ (match part with Some p -> [ "--json"; p ] | None -> [])
              @ match o.spans with Some d -> [ "--spans"; d ] | None -> []
            in
            flush stdout;
            let pid =
              Unix.create_process Sys.executable_name
                (Array.of_list (Sys.executable_name :: args))
                Unix.stdin Unix.stdout Unix.stderr
            in
            (match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> ok := false);
            match part with
            | Some p when Sys.file_exists p ->
                docs := Report.runs_of p @ !docs;
                Sys.remove p
            | _ -> ())
          [ false; true ])
      Workloads.gated
  done;
  (match o.json with
  | Some path -> write_file path (Fbsr_util.Json.to_string (Report.document (List.rev !docs)))
  | None -> ());
  exit (if !ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
      match rest with
      | [ a; b ] -> exit (Report.compare_files ~benchmark:"BENCHMARK.json" a b)
      | [ a; b; "--benchmark"; m ] | [ "--benchmark"; m; a; b ] ->
          exit (Report.compare_files ~benchmark:m a b)
      | _ -> usage ())
  | args -> (
      let o = parse args in
      match o.workload with
      | Some name ->
          let w = Option.get (Workloads.find name) in
          run_one o w (o.trace = Some true)
      | None -> run_all o)
