(* What a run prints, the fbsr-e2e/1 document, and [compare]. *)

module Json = Fbsr_util.Json

(* The metrics of the result line: every end-to-end metric from an
   untraced run, every per-layer metric from a traced one (a layer the
   workload does not exercise reads 0). *)
let values (r : Run.result) =
  if r.traced then
    List.map
      (fun (x : Metric.t) -> (x, Option.value ~default:0.0 (List.assoc_opt x.name r.layers)))
      Metric.per_layer
  else
    List.filter_map
      (fun (x : Metric.t) ->
        List.find_map (fun (n, v, _) -> if n = x.name then Some (x, v) else None) r.e2e)
      Metric.e2e

let fail_frac (r : Run.result) =
  if r.check.attempted = 0 then 1.0
  else float_of_int (Run.failed r) /. float_of_int r.check.attempted

let print_lines (r : Run.result) =
  List.iter
    (fun ((x : Metric.t), v) -> Printf.printf "%s %s %.6g %s\n" r.workload x.name v x.unit_)
    (values r);
  Printf.printf "%s fail_frac %.6g ratio\n" r.workload (fail_frac r);
  List.iter (fun v -> Printf.eprintf "%s: %s\n" r.workload v) r.check.violations

let value_json name v =
  let unit_ = match Metric.find name with Some x -> x.Metric.unit_ | None -> "" in
  [ ("value", Json.Float v); ("unit", Json.String unit_) ]

(* The last line of standard output. *)
let result_line (r : Run.result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (Run.correct r));
         ("attempted", Json.Int r.check.attempted);
         ("failed", Json.Int (Run.failed r));
         ( "metrics",
           Json.Obj
             (List.map
                (fun ((x : Metric.t), v) -> (x.name, Json.Obj (value_json x.name v)))
                (values r)) );
       ])

(* ---- fbsr-e2e/1 ---------------------------------------------------------- *)

let schema = "fbsr-e2e/1"

let run_json (r : Run.result) =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("traced", Json.Bool r.traced);
      ("seconds", Json.Float r.seconds);
      ("scale", Json.Float r.scale);
      ("correct", Json.Bool (Run.correct r));
      ("attempted", Json.Int r.check.attempted);
      ("failed", Json.Int (Run.failed r));
      ("fail_frac", Json.Float (fail_frac r));
      ("violations", Json.List (List.map (fun v -> Json.String v) r.check.violations));
      ( "e2e",
        Json.Obj
          (List.map
             (fun (name, v, samples) ->
               ( name,
                 Json.Obj
                   (value_json name v
                   @ [ ("samples", Json.List (List.map (fun s -> Json.Float s) samples)) ]) ))
             r.e2e) );
      ( "per_layer",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Obj (value_json name v))) r.layers) );
      ("counters", Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) r.counters));
    ]

let document runs = Json.Obj [ ("schema", Json.String schema); ("runs", Json.List runs) ]

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse s

let runs_of path =
  let doc = read_json path in
  (match Json.member "schema" doc with
  | Some (Json.String s) when s = schema -> ()
  | _ -> failwith (path ^ ": not an " ^ schema ^ " document"));
  match Json.member "runs" doc with Some (Json.List l) -> l | _ -> []

(* ---- compare -------------------------------------------------------------- *)

let str j k = match Json.member k j with Some (Json.String s) -> s | _ -> ""
let num j k = Option.value ~default:nan (Option.bind (Json.member k j) Json.to_float_opt)

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them. *)
let quartiles values =
  let a = Array.of_list (List.sort compare values) in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let iqr values =
  let q1, q3 = quartiles values in
  q3 -. q1

(* A side's samples for one workload and metric: each run's value when
   the side holds several runs, else its one run's samples (blocks). *)
let samples runs metric =
  let field r k =
    Option.bind (Option.bind (Json.member "e2e" r) (Json.member metric)) (Json.member k)
  in
  match runs with
  | [ r ] -> (
      match field r "samples" with
      | Some (Json.List l) -> List.filter_map Json.to_float_opt l
      | _ -> [])
  | rs -> List.filter_map (fun r -> Option.bind (field r "value") Json.to_float_opt) rs

(* Bounds as BENCHMARK.json fixes them, and any way its lists disagree
   with this program's. *)
let manifest path =
  let doc = read_json path in
  let list k = match Json.member k doc with Some (Json.List l) -> l | _ -> [] in
  let spec l = List.map (fun j -> (str j "name", str j "unit", str j "better")) l in
  let ours =
    List.map (fun (x : Metric.t) ->
        (x.name, x.unit_, if x.higher_better then "higher" else "lower"))
  in
  let problems =
    (if spec (list "end_to_end") <> ours Metric.e2e then [ "end_to_end differs from Metric.e2e" ]
     else [])
    @ (if spec (list "per_layer") <> ours Metric.per_layer then
         [ "per_layer differs from Metric.per_layer" ]
       else [])
    @
    if List.map (fun j -> str j "name") (list "workloads")
       <> List.map (fun (w : Run.workload) -> w.name) Workloads.gated
    then [ "workloads differ from Workloads.gated" ]
    else []
  in
  (List.map (fun j -> (str j "name", num j "bound")) (list "end_to_end"), problems)

type verdict = Unchanged | Improved | Unresolved | Regressed

let verdict_name = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Unresolved -> "unresolved"
  | Regressed -> "REGRESSED"

(* B against A: a regression when B's median is worse by more than the
   bound; unresolved when either side's spread (IQR over median) exceeds
   the bound, unless every B sample beats every A sample. *)
let judge ~bound ~higher a b =
  let ma = Phase.median a and mb = Phase.median b in
  let spread xs = iqr xs /. Float.abs (Phase.median xs) in
  let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let beats y x = if higher then y > x else y < x in
  if worse > bound then Regressed
  else if Float.max (spread a) (spread b) > bound then
    if List.for_all (fun y -> List.for_all (beats y) a) b then Improved else Unresolved
  else if -.worse > bound then Improved
  else Unchanged

(* Runs that share a workload, seed and size must count exactly alike. *)
let compare_counters name ra rb =
  let key r = (num r "seed", num r "seconds", num r "scale") in
  let counters r = Json.members (Option.value ~default:Json.Null (Json.member "counters" r)) in
  List.iter
    (fun r ->
      match List.find_opt (fun r' -> key r' = key r) rb with
      | None -> ()
      | Some r' ->
          let ca = counters r and cb = counters r' in
          let differ =
            List.length (List.filter (fun (k, v) -> List.assoc_opt k cb <> Some v) ca)
            + List.length (List.filter (fun (k, _) -> not (List.mem_assoc k ca)) cb)
          in
          Printf.printf "%-12s counters, seed %.0f: %s\n" name (num r "seed")
            (if differ = 0 then Printf.sprintf "%d identical" (List.length ca)
             else Printf.sprintf "%d differ" differ))
    ra

let compare_files ~benchmark a_path b_path =
  let bounds, problems = manifest benchmark in
  List.iter (fun p -> Printf.printf "%s: %s\n" benchmark p) problems;
  let untraced path =
    List.filter (fun r -> Json.member "traced" r = Some (Json.Bool false)) (runs_of path)
  in
  let a = untraced a_path and b = untraced b_path in
  let of_workload w = List.filter (fun r -> str r "workload" = w) in
  Printf.printf "%-12s %-14s %12s %10s %12s %10s %6s  %s\n" "workload" "metric" "A median"
    "A IQR" "B median" "B IQR" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun (w : Run.workload) ->
      let ra = of_workload w.name a and rb = of_workload w.name b in
      if ra <> [] && rb <> [] then begin
        List.iter
          (fun (x : Metric.t) ->
            let sa = samples ra x.name and sb = samples rb x.name in
            if sa <> [] && sb <> [] then begin
              let bound = Option.value ~default:0.0 (List.assoc_opt x.name bounds) in
              let v = judge ~bound ~higher:x.higher_better sa sb in
              if v = Regressed then regressed := true;
              Printf.printf "%-12s %-14s %12.6g %10.4g %12.6g %10.4g %5.0f%%  %s\n" w.name x.name
                (Phase.median sa) (iqr sa) (Phase.median sb) (iqr sb) (bound *. 100.0)
                (verdict_name v)
            end)
          Metric.e2e;
        compare_counters w.name ra rb
      end)
    Workloads.all;
  if problems <> [] then 2 else if !regressed then 1 else 0
