(* Print the counters of an fbsr-e2e/1 document (bench/e2e/main.exe
   --json), one "name value" line each, in the document's order.  The
   golden files beside this program are its output for one short run of
   each benchmark workload, so a change that moves any count of work done
   shows up as a diff.

   Usage: counters.exe RUN.json *)

let () =
  let path = Sys.argv.(1) in
  let doc = Fbsr_util.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let runs =
    match Fbsr_util.Json.member "runs" doc with
    | Some (Fbsr_util.Json.List runs) -> runs
    | Some _ | None -> failwith (path ^ ": no runs")
  in
  List.iter
    (fun run ->
      match Fbsr_util.Json.member "counters" run with
      | Some counters ->
          List.iter
            (fun (name, v) -> Printf.printf "%s %s\n" name (Fbsr_util.Json.to_string v))
            (Fbsr_util.Json.members counters)
      | None -> failwith (path ^ ": a run has no counters"))
    runs
