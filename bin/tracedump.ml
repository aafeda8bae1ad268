(* fbs-tracedump: exporters for fbsr-spans/1 causal-trace artifacts.

   Reads the span JSON written by `fbs-experiments faults --spans` or
   `fbs-bench --spans` and renders it as either a plain-text per-flow
   timeline (default, or one flow with --flow) or Chrome trace-event JSON
   loadable in chrome://tracing and Perfetto (--chrome).

   Plain Sys.argv parsing, same style as bench_diff: this tool must stay
   dependency-free so CI can build it in the smoke job. *)

let usage () =
  prerr_endline
    "usage: tracedump SPANS.json [--chrome OUT.json] [--flow HEXID] [--drops] \
     [--stats]\n\n\
     SPANS.json      an fbsr-spans/1 artifact (fbs-experiments faults \
     --spans,\n\
    \                fbs-bench --spans)\n\
     --chrome OUT    write Chrome trace-event JSON to OUT (chrome://tracing,\n\
    \                Perfetto) instead of printing timelines\n\
     --flow HEXID    print only the flow with this 16-hex-digit trace id\n\
     --drops         keep only chains whose terminal span is a drop:* \
     outcome\n\
    \                (composes with --chrome, --flow and --stats)\n\
     --stats         print the per-stage latency table (count/p50/p99/worst\n\
    \                over span cost) instead of timelines";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("tracedump: " ^ s); exit 2) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error e -> fail "%s" e

let parse_id s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some id when not (Int64.equal id 0L) -> id
  | _ -> fail "--flow wants a 16-hex-digit trace id, got %S" s

(* Chains whose terminal span carries a drop:* outcome, in full — every
   span of a dropped datagram's life, not just the terminal one. *)
let drop_chains spans =
  let module Tbl = Hashtbl in
  let dropped = Tbl.create 64 in
  List.iter
    (fun (s : Fbsr_util.Span.span) ->
      if Fbsr_util.Span.is_drop s.outcome then Tbl.replace dropped s.id ())
    spans;
  List.filter (fun (s : Fbsr_util.Span.span) -> Tbl.mem dropped s.id) spans

let print_stats spans =
  let stats = Fbsr_util.Span.stage_stats spans in
  Printf.printf "%-24s %8s %12s %12s %12s\n" "stage" "count" "p50 (s)"
    "p99 (s)" "worst (s)";
  List.iter
    (fun (st : Fbsr_util.Span.stage_stat) ->
      Printf.printf "%-24s %8d %12.6f %12.6f %12.6f\n" st.stat_stage st.count
        st.p50 st.p99 st.worst)
    stats;
  let drops = Hashtbl.create 16 in
  List.iter
    (fun (s : Fbsr_util.Span.span) ->
      if Fbsr_util.Span.is_drop s.outcome then
        Hashtbl.replace drops s.outcome
          (1 + Option.value ~default:0 (Hashtbl.find_opt drops s.outcome)))
    spans;
  let causes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) drops [] in
  if causes <> [] then begin
    print_newline ();
    Printf.printf "%-24s %8s\n" "drop cause" "chains";
    List.iter
      (fun (cause, n) -> Printf.printf "%-24s %8d\n" cause n)
      (List.sort compare causes)
  end

let () =
  let input = ref None
  and chrome = ref None
  and flow = ref None
  and drops = ref false
  and stats = ref false in
  let rec args = function
    | [] -> ()
    | "--chrome" :: path :: rest ->
        chrome := Some path;
        args rest
    | "--flow" :: id :: rest ->
        flow := Some (parse_id id);
        args rest
    | "--drops" :: rest ->
        drops := true;
        args rest
    | "--stats" :: rest ->
        stats := true;
        args rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: rest ->
        if String.length arg > 0 && arg.[0] = '-' then
          fail "unknown option %s" arg;
        (match !input with
        | None -> input := Some arg
        | Some _ -> fail "more than one input file");
        args rest
  in
  args (List.tl (Array.to_list Sys.argv));
  let path = match !input with Some p -> p | None -> usage () in
  let spans =
    match Fbsr_util.Json.parse_opt (read_file path) with
    | None -> fail "%s: not valid JSON" path
    | Some doc -> (
        try Fbsr_util.Span.of_json doc
        with Invalid_argument msg -> fail "%s: %s" path msg)
  in
  if spans = [] then prerr_endline "tracedump: no spans in input";
  let spans = if !drops then drop_chains spans else spans in
  if !drops && spans = [] then print_endline "no drop-terminated chains";
  match !chrome with
  | Some out ->
      let oc = open_out out in
      output_string oc
        (Fbsr_util.Json.to_string (Fbsr_util.Span.chrome_json spans));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s (%d spans, %d flows)\n" out (List.length spans)
        (List.length (Fbsr_util.Span.ids spans))
  | None when !stats ->
      let spans =
        match !flow with
        | Some id -> Fbsr_util.Span.by_id id spans
        | None -> spans
      in
      print_stats spans
  | None ->
      Format.printf "%a@." (Fbsr_util.Span.pp_timeline ?id:!flow) spans
