(* The observability layer itself: Metrics registry semantics (histogram
   bucket edges, probe summing, scoped views) and the
   Span recorder, plus JSON round-trips
   through the hand-rolled parser — the same path the BENCH_*.json
   artifacts and bench_diff rely on. *)

open Fbsr_util

let check = Alcotest.check
let json_string = function Json.String s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Kinds.                                                              *)
(* ------------------------------------------------------------------ *)

let test_kind_collision_rejected () =
  let m = Metrics.create () in
  Metrics.register_probe m "x" (fun () -> 0);
  match Metrics.histogram m "x" with
  | (_ : Metrics.histogram) -> Alcotest.fail "histogram reused a probe name"
  | exception Invalid_argument _ -> ()

(* A histogram's reading in a snapshot of its registry. *)
let hist m name =
  match List.assoc_opt name (Metrics.snapshot m) with
  | Some (Metrics.Hist { count; sum; buckets }) -> (count, sum, buckets)
  | _ -> Alcotest.failf "no histogram %s" name

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucket_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] m "lat" in
  (* Edge semantics: bucket i counts bounds.(i-1) < v <= bounds.(i). *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 10.0; 100.0; 1000.0 ];
  let count, sum, buckets = hist m "lat" in
  check Alcotest.int "count" 6 count;
  check (Alcotest.float 1e-9) "sum" 1113.0 sum;
  (match buckets with
  | [ (lo0, up0, n0); (_, up1, n1); (_, up2, n2); (_, up3, n3) ] ->
      check Alcotest.bool "first lower is -inf" true (lo0 = neg_infinity);
      check (Alcotest.float 0.0) "first upper" 1.0 up0;
      check Alcotest.int "<= 1.0 (incl. underflow and the edge)" 2 n0;
      check (Alcotest.float 0.0) "second upper" 10.0 up1;
      check Alcotest.int "(1, 10]" 2 n1;
      check (Alcotest.float 0.0) "third upper" 100.0 up2;
      check Alcotest.int "(10, 100]" 1 n2;
      check Alcotest.bool "overflow upper is +inf" true (up3 = infinity);
      check Alcotest.int "overflow" 1 n3
  | bs -> Alcotest.failf "expected 4 buckets, got %d" (List.length bs));
  match Metrics.histogram ~buckets:[| 2.0; 1.0 |] m "bad" with
  | (_ : Metrics.histogram) -> Alcotest.fail "non-increasing bounds accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Probes and scoped views.                                            *)
(* ------------------------------------------------------------------ *)

let test_probe_summing () =
  let m = Metrics.create () in
  let a = ref 3 and b = ref 4 in
  Metrics.register_probe m "drops" (fun () -> !a);
  Metrics.register_probe m "drops" (fun () -> !b);
  check Alcotest.int "probes under one name sum" 7 (Metrics.get m "drops");
  a := 10;
  check Alcotest.int "reads are live" 14 (Metrics.get m "drops")

let test_sub_scoping () =
  let m = Metrics.create () in
  let host = Metrics.sub m "host.10.0.0.1" in
  Metrics.register_probe host "sends" (fun () -> 2);
  check Alcotest.int "visible under the full name from the root" 2
    (Metrics.get m "host.10.0.0.1.sends");
  check Alcotest.int "visible under the short name from the view" 2
    (Metrics.get host "sends");
  Metrics.register_probe m "other" (fun () -> 1);
  check
    (Alcotest.list Alcotest.string)
    "sub view lists only its prefix" [ "host.10.0.0.1.sends" ]
    (List.map fst (Metrics.snapshot host));
  check Alcotest.bool "mem respects the prefix" false (Metrics.mem host "other")

(* ------------------------------------------------------------------ *)
(* JSON round-trips.                                                   *)
(* ------------------------------------------------------------------ *)

(* A snapshot serialized the way the bench artifact's counters object is. *)
let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.register_probe m "c" (fun () -> 7);
  Metrics.register_probe m "p" (fun () -> 11);
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] m "h" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  let doc =
    Json.Obj
      (List.map
         (fun (name, v) ->
           ( name,
             match v with
             | Metrics.Int i -> Json.Int i
             | Metrics.Hist { count; sum; _ } ->
                 Json.Obj [ ("count", Json.Int count); ("sum", Json.Float sum) ] ))
         (Metrics.snapshot m))
  in
  let parsed = Json.parse (Json.to_string doc) in
  let num name =
    match Option.bind (Json.member name parsed) Json.to_float_opt with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" name
  in
  check (Alcotest.float 0.0) "probe survives" 7.0 (num "c");
  check (Alcotest.float 0.0) "second probe survives" 11.0 (num "p");
  match Json.member "h" parsed with
  | Some hist ->
      check (Alcotest.float 0.0) "hist count" 2.0
        (Option.get (Option.bind (Json.member "count" hist) Json.to_float_opt));
      check (Alcotest.float 1e-9) "hist sum" 5.5
        (Option.get (Option.bind (Json.member "sum" hist) Json.to_float_opt))
  | None -> Alcotest.fail "histogram missing from JSON"

let test_json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("s", Json.String "a \"quoted\" \n string");
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int (-3) ]);
        ("o", Json.Obj [ ("nested", Json.Float 1e-6) ]);
      ]
  in
  check Alcotest.bool "compact form parses back equal" true
    (Json.parse (Json.to_string doc) = doc);
  check Alcotest.bool "pretty form parses back equal" true
    (Json.parse (Json.to_string_pretty doc) = doc);
  (* JSON has no nan/inf: they print as null, which Timeseries relies on
     for its NaN grid anchor. *)
  List.iter
    (fun f ->
      check Alcotest.bool
        (Printf.sprintf "%h prints and parses back as null" f)
        true
        (Json.parse (Json.to_string (Json.Float f)) = Json.Null))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  match Json.parse "[1, 2] trailing" with
  | (_ : Json.t) -> Alcotest.fail "trailing garbage accepted"
  | exception Json.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.                                         *)
(* ------------------------------------------------------------------ *)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_to_text () =
  let m = Metrics.create () in
  Metrics.register_probe m "fbs.engine.sends" (fun () -> 3);
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] m "lat" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 50.0;
  let text = Metrics.to_text m in
  let has sub = check Alcotest.bool ("exposition contains " ^ sub) true (contains sub text) in
  (* Dots sanitize to underscores; probes get counter TYPE lines. *)
  has "# TYPE fbs_engine_sends counter";
  has "fbs_engine_sends 3";
  (* Histogram buckets are cumulative and always end at +Inf = count. *)
  has "# TYPE lat histogram";
  has "lat_bucket{le=\"1\"} 1";
  has "lat_bucket{le=\"10\"} 2";
  has "lat_bucket{le=\"+Inf\"} 3";
  has "lat_sum 55.5";
  has "lat_count 3"

(* ------------------------------------------------------------------ *)
(* Span recorder (causal tracing).                                     *)
(* ------------------------------------------------------------------ *)

let test_span_ids () =
  let a = Span.fresh_id () and b = Span.fresh_id () in
  check Alcotest.bool "fresh ids are nonzero" false (Int64.equal a 0L);
  check Alcotest.bool "fresh ids are distinct" false (Int64.equal a b);
  check Alcotest.bool "no ambient id by default" true
    (Int64.equal (Span.current ()) 0L);
  Span.with_current a (fun () ->
      check Alcotest.bool "ambient id visible inside" true
        (Int64.equal (Span.current ()) a);
      Span.with_current b (fun () ->
          check Alcotest.bool "nesting shadows" true
            (Int64.equal (Span.current ()) b));
      check Alcotest.bool "inner restore" true
        (Int64.equal (Span.current ()) a));
  check Alcotest.bool "outer restore" true (Int64.equal (Span.current ()) 0L);
  (match Span.with_current a (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check Alcotest.bool "restored after exception" true
    (Int64.equal (Span.current ()) 0L)

let test_span_ring () =
  let now = ref 0.0 in
  let sp = Span.create ~capacity:3 ~host:"h" ~clock:(fun () -> !now) () in
  check Alcotest.bool "enabled" true (Span.enabled sp);
  for i = 1 to 5 do
    let tm = Span.start sp in
    now := !now +. 1.0;
    Span.finish sp tm ~id:(Int64.of_int i) "stage"
  done;
  check Alcotest.int "retained bounded by capacity" 3
    (List.length (Span.spans sp));
  check Alcotest.int "total counts everything" 5 (Span.total sp);
  check Alcotest.int "dropped = total - retained" 2 (Span.dropped sp);
  check
    (Alcotest.list Alcotest.int)
    "oldest overwritten first"
    [ 3; 4; 5 ]
    (List.map (fun s -> Int64.to_int s.Span.id) (Span.spans sp));
  Span.clear sp;
  check Alcotest.int "clear empties the ring" 0 (List.length (Span.spans sp));
  (* The disabled recorder records nothing and allocates nothing. *)
  check Alcotest.bool "none is disabled" false (Span.enabled Span.none);
  Span.finish Span.none (Span.start Span.none) "x";
  check Alcotest.int "finish on none is a no-op" 0 (Span.total Span.none)

let test_span_json_roundtrip () =
  let now = ref 0.0 in
  let sp = Span.create ~capacity:8 ~host:"10.0.0.1" ~clock:(fun () -> !now) () in
  let id = Span.fresh_id () in
  let tm = Span.start sp in
  now := 0.5;
  Span.finish sp tm ~id ~outcome:"delivered" "engine.receive"
    ~detail:[ ("ok", Json.Bool true) ];
  let tm2 = Span.start sp in
  now := 0.75;
  Span.finish sp tm2 ~id "replay.check";
  let spans = Span.spans sp in
  let back = Span.of_json (Json.parse (Json.to_string (Span.to_json spans))) in
  check Alcotest.bool "spans survive a JSON round trip" true (back = spans);
  check Alcotest.int "both spans share the trace id" 2
    (List.length (Span.by_id id spans));
  (match Span.of_json (Json.Obj [ ("schema", Json.String "nope/9") ]) with
  | (_ : Span.span list) -> Alcotest.fail "wrong schema accepted"
  | exception Invalid_argument _ -> ());
  (* The plain-text timeline names the flow by its hex id. *)
  let text = Format.asprintf "%a" (Span.pp_timeline ?id:None) spans in
  check Alcotest.bool "timeline mentions the trace id" true
    (contains (Printf.sprintf "%016Lx" id) text);
  check Alcotest.bool "timeline mentions the terminal outcome" true
    (contains "delivered" text)

let test_span_chrome () =
  let now = ref 0.0 in
  let mk host = Span.create ~capacity:8 ~host ~clock:(fun () -> !now) () in
  let s1 = mk "10.0.0.1" and s2 = mk "10.0.0.2" in
  let id = Span.fresh_id () in
  let tm = Span.start s1 in
  now := 1e-3;
  Span.finish s1 tm ~id "engine.seal";
  let tm = Span.start s2 in
  now := 2e-3;
  Span.finish s2 tm ~id ~outcome:"delivered" "engine.receive";
  match Span.chrome_json (Span.collect [ s1; s2 ]) with
  | Json.Obj kvs -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json.List evs) ->
          let ph p ev =
            Json.member "ph" ev = Some (Json.String p)
          in
          let metas = List.filter (ph "M") evs in
          let complete = List.filter (ph "X") evs in
          (* Two process_name records (one per host) and a thread lane for
             every host x stage combination (2 x 2). *)
          check Alcotest.int "2 process + 4 thread metadata records" 6
            (List.length metas);
          check Alcotest.int "one complete event per span" 2
            (List.length complete);
          List.iter
            (fun ev ->
              match Json.member "args" ev with
              | Some args ->
                  check
                    (Alcotest.option Alcotest.string)
                    "trace id rides in args"
                    (Some (Printf.sprintf "%016Lx" id))
                    (Option.bind (Json.member "trace_id" args)
                       json_string)
              | None -> Alcotest.fail "X event without args")
            complete
      | _ -> Alcotest.fail "traceEvents missing or not a list")
  | _ -> Alcotest.fail "chrome_json did not produce an object"

let test_span_stage_stats () =
  let cost = ref 0.0 in
  let sp =
    Span.create ~capacity:128 ~clock:(fun () -> 0.0)
      ~cost_clock:(fun () -> !cost)
      ()
  in
  for i = 1 to 100 do
    cost := 0.0;
    let tm = Span.start sp in
    cost := float_of_int i /. 100.0;
    Span.finish sp tm ~id:1L "engine.seal"
  done;
  match Span.stage_stats (Span.spans sp) with
  | [ s ] ->
      check Alcotest.string "stage" "engine.seal" s.Span.stat_stage;
      check Alcotest.int "count" 100 s.Span.count;
      check (Alcotest.float 1e-9) "p50 (nearest rank)" 0.50 s.Span.p50;
      check (Alcotest.float 1e-9) "p99 (nearest rank)" 0.99 s.Span.p99;
      check (Alcotest.float 1e-9) "worst" 1.0 s.Span.worst
  | l -> Alcotest.failf "expected one stage, got %d" (List.length l)

let test_span_metrics_histograms () =
  let m = Metrics.create () in
  let cost = ref 0.0 in
  let sp =
    Span.create ~capacity:8 ~clock:(fun () -> 0.0)
      ~cost_clock:(fun () -> !cost)
      ~metrics:(Metrics.sub m "span") ()
  in
  let tm = Span.start sp in
  cost := 0.25;
  Span.finish sp tm ~id:1L "engine.seal";
  let count, sum, _ = hist m "span.stage.engine.seal" in
  check Alcotest.int "one observation per finish" 1 count;
  check (Alcotest.float 1e-9) "cost observed in seconds" 0.25 sum

(* ------------------------------------------------------------------ *)
(* Heavy-hitter sketches (Space-Saving candidates over linear count-min). *)
(* ------------------------------------------------------------------ *)

let test_sketch_basic () =
  let s = Sketch.create ~slots:8 ~cm_width:1024 () in
  check Alcotest.bool "enabled" true (Sketch.enabled s);
  Sketch.observe s 7L 3;
  Sketch.observe s 7L 2;
  Sketch.observe s 9L 1;
  check Alcotest.int "total sums weights" 6 (Sketch.total s);
  check Alcotest.int "distinct keys tracked" 2 (Sketch.distinct_tracked s);
  (* Count-min never underestimates; with two keys in 1024 cells there are
     no collisions, so the estimates are exact. *)
  check Alcotest.int "estimate of the heavy key" 5 (Sketch.estimate s 7L);
  check Alcotest.int "estimate of the light key" 1 (Sketch.estimate s 9L);
  check Alcotest.int "unseen key estimates zero" 0 (Sketch.estimate s 99L);
  (* top: (estimate desc, key asc). *)
  (match Sketch.top s 2 with
  | [ (7L, 5); (9L, 1) ] -> ()
  | l ->
      Alcotest.failf "unexpected top-2: %s"
        (String.concat ";"
           (List.map (fun (k, e) -> Printf.sprintf "(%Ld,%d)" k e) l)));
  check Alcotest.int "ss_bound = total/slots" 0 (Sketch.ss_bound s);
  (* The shared disabled sketch: observe is a no-op, reads are empty. *)
  Sketch.observe Sketch.none 7L 1;
  check Alcotest.bool "none is disabled" false (Sketch.enabled Sketch.none);
  check Alcotest.int "none total" 0 (Sketch.total Sketch.none);
  check Alcotest.bool "none top empty" true (Sketch.top Sketch.none 4 = [])

(* Million-observation Zipf-shaped fidelity: exact per-key counts in a
   hashtable next to the sketch, then (a) every key heavier than the
   Space-Saving bound is among the tracked candidates, (b) the exact
   top-32 suffers zero false negatives in the sketch's top-32, and
   (c) count-min estimates bracket the true counts from above within the
   linear-CM error bound. *)
let test_sketch_zipf_fidelity () =
  let n = 1_000_000 in
  let key_space = 1 lsl 20 in
  let slots = 1024 and cm_width = 8192 in
  let s = Sketch.create ~slots ~cm_width () in
  let exact : (int64, int) Hashtbl.t = Hashtbl.create 4096 in
  let lcg = Lcg.create 20260809 in
  for _ = 1 to n do
    (* Log-uniform rank: density ~ 1/k, the Zipf(1) shape. *)
    let u = float_of_int (Lcg.next_u32 lcg) /. 4294967296.0 in
    let k = Int64.of_float (float_of_int key_space ** u) in
    Sketch.observe s k 1;
    Hashtbl.replace exact k (1 + Option.value ~default:0 (Hashtbl.find_opt exact k))
  done;
  check Alcotest.int "sketch total = observations" n (Sketch.total s);
  let bound = Sketch.ss_bound s in
  let tracked = Sketch.top s (Sketch.distinct_tracked s) in
  let tracked_keys = List.map fst tracked in
  Hashtbl.iter
    (fun k c ->
      if c > bound && not (List.mem k tracked_keys) then
        Alcotest.failf "key %Ld (count %d > bound %d) missing from candidates" k
          c bound)
    exact;
  let exact_sorted =
    Hashtbl.fold (fun k c l -> (k, c) :: l) exact []
    |> List.sort (fun (ka, ca) (kb, cb) ->
           if ca <> cb then compare cb ca else compare ka kb)
  in
  let take32 l = List.filteri (fun i _ -> i < 32) l in
  let top32 = List.map fst (Sketch.top s 32) in
  List.iter
    (fun (k, c) ->
      if not (List.mem k top32) then
        Alcotest.failf "exact top-32 key %Ld (count %d) absent from sketch top-32"
          k c)
    (take32 exact_sorted);
  let err_bound = 4 * n / cm_width in
  List.iter
    (fun (k, c) ->
      let est = Sketch.estimate s k in
      if est < c then
        Alcotest.failf "count-min underestimated key %Ld: %d < %d" k est c;
      if est > c + err_bound then
        Alcotest.failf "count-min error for key %Ld beyond bound: %d > %d + %d" k
          est c err_bound)
    (take32 exact_sorted)

(* Canonical merge: the same stream split across four per-shard sketches
   and merged must serialize byte-for-byte like one sketch that saw the
   whole stream — counts, checksum and the top-K list all reconstruct
   from the summed count-min, not from per-shard candidate state.  The
   serialized-equality guarantee needs the top-K candidates present on
   both sides, which holds when no slot ever evicts (distinct <= slots,
   as here) or when every top-K key clears the Space-Saving bound (the
   million-flow case, exercised scenario-level in test_sharded). *)
let test_sketch_merge_canonical () =
  let single = Sketch.create ~slots:512 ~cm_width:2048 () in
  let shards = Array.init 4 (fun _ -> Sketch.create ~slots:512 ~cm_width:2048 ()) in
  let lcg = Lcg.create 77 in
  for _ = 1 to 50_000 do
    let u = float_of_int (Lcg.next_u32 lcg) /. 4294967296.0 in
    let k = Int64.of_float (256.0 ** u) in
    let w = 1 + (Int64.to_int k land 3) in
    Sketch.observe single k w;
    Sketch.observe shards.(Int64.to_int k land 3) k w
  done;
  let merged = Sketch.merge (Array.to_list shards) in
  check Alcotest.int "merged total" (Sketch.total single) (Sketch.total merged);
  check Alcotest.int "merged cm_checksum" (Sketch.cm_checksum single)
    (Sketch.cm_checksum merged);
  check Alcotest.string "merged sketch JSON is byte-identical"
    (Json.to_string (Sketch.to_json single))
    (Json.to_string (Sketch.to_json merged));
  (match Sketch.merge [] with
  | (_ : Sketch.t) -> Alcotest.fail "empty merge accepted"
  | exception Invalid_argument _ -> ());
  match Sketch.merge [ single; Sketch.create ~slots:8 () ] with
  | (_ : Sketch.t) -> Alcotest.fail "dimension mismatch accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Timeseries flight recorder.                                         *)
(* ------------------------------------------------------------------ *)

let test_timeseries_tick_ring () =
  let m = Metrics.create () in
  let sends = ref 0 in
  Metrics.register_probe m "fbs.engine.sends" (fun () -> !sends);
  let ts = Timeseries.create ~capacity:4 ~cadence:1.0 ~host:"h" ~metrics:m () in
  check Alcotest.bool "enabled" true (Timeseries.enabled ts);
  check Alcotest.bool "none disabled" false (Timeseries.enabled Timeseries.none);
  (* First tick anchors the cadence grid and snapshots immediately. *)
  Timeseries.tick ts ~now:10.0;
  check Alcotest.int "anchor tick snapshots" 1 (Timeseries.taken ts);
  Timeseries.tick ts ~now:10.5;
  check Alcotest.int "sub-cadence tick skipped" 1 (Timeseries.taken ts);
  sends := !sends + 7;
  Timeseries.tick ts ~now:11.0;
  check Alcotest.int "cadence tick snapshots" 2 (Timeseries.taken ts);
  (* A late tick takes one snapshot, not one per missed grid point. *)
  sends := !sends + 5;
  Timeseries.tick ts ~now:15.25;
  check Alcotest.int "late tick snapshots once" 3 (Timeseries.taken ts);
  check (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0))
    "last2 reads the newest two rows" (7.0, 12.0)
    (Timeseries.last2 ts "fbs.engine.sends");
  check (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0))
    "last2 on an unknown column is zero" (0.0, 0.0)
    (Timeseries.last2 ts "no.such.column");
  (* Ring overflow keeps the newest [capacity] rows in order. *)
  for i = 1 to 4 do
    incr sends;
    Timeseries.tick ts ~now:(15.25 +. float_of_int i)
  done;
  check Alcotest.int "taken counts everything" 7 (Timeseries.taken ts);
  check Alcotest.int "kept bounded by capacity" 4 (Timeseries.kept ts);
  let series = Timeseries.series ts "fbs.engine.sends" in
  check Alcotest.int "series spans the kept rows" 4 (Array.length series);
  check (Alcotest.float 0.0) "oldest kept row" 13.0 (snd series.(0));
  check (Alcotest.float 0.0) "newest row" 16.0 (snd series.(3))

let test_timeseries_json_roundtrip () =
  let m = Metrics.create () in
  let sends = ref 0 in
  Metrics.register_probe m "sends" (fun () -> !sends);
  let ts = Timeseries.create ~capacity:8 ~cadence:1.0 ~metrics:m () in
  let expect = ref [] in
  for i = 0 to 3 do
    sends := !sends + (i * i);
    Timeseries.tick ts ~now:(float_of_int i);
    expect := float_of_int !sends :: !expect
  done;
  let doc = Json.parse (Json.to_string (Timeseries.to_json ts)) in
  check (Alcotest.option Alcotest.string) "schema" (Some "fbsr-timeseries/1")
    (Option.bind (Json.member "schema" doc) json_string);
  let floats name =
    match Json.member name doc with
    | Some (Json.List l) -> List.map (fun j -> Option.get (Json.to_float_opt j)) l
    | _ -> Alcotest.failf "missing %s" name
  in
  let col =
    match Json.member "names" doc with
    | Some (Json.List l) ->
        let names = List.map (fun j -> Option.get (json_string j)) l in
        let rec index i = function
          | [] -> Alcotest.fail "column missing from names"
          | "sends" :: _ -> i
          | _ :: rest -> index (i + 1) rest
        in
        index 0 names
    | _ -> Alcotest.fail "names missing"
  in
  (* base + cumulative deltas reconstruct the recorded series exactly. *)
  let base = List.nth (floats "base") col in
  let deltas =
    match Json.member "deltas" doc with
    | Some (Json.List rows) ->
        List.map
          (fun row ->
            match row with
            | Json.List cells -> Option.get (Json.to_float_opt (List.nth cells col))
            | _ -> Alcotest.fail "bad delta row")
          rows
    | _ -> Alcotest.fail "deltas missing"
  in
  let reconstructed =
    List.rev
      (List.fold_left (fun acc d -> (List.hd acc +. d) :: acc) [ base ] deltas)
  in
  check (Alcotest.list (Alcotest.float 0.0)) "base+deltas reconstruct the series"
    (List.rev !expect) reconstructed

(* Interval p99: the recorded percentile covers only the observations
   since the previous snapshot, not the lifetime distribution. *)
let test_timeseries_interval_p99 () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 0.001; 0.01; 0.1 |] m "lat" in
  let ts = Timeseries.create ~capacity:8 ~cadence:1.0 ~metrics:m () in
  for _ = 1 to 100 do
    Metrics.observe h 0.0005
  done;
  Timeseries.tick ts ~now:0.0;
  (* New interval: all fast observations again — a lifetime p99 would
     still sit in the first bucket either way; now poison the interval. *)
  for _ = 1 to 10 do
    Metrics.observe h 0.05
  done;
  Timeseries.tick ts ~now:1.0;
  let _, p99 = Timeseries.last2 ts "lat.p99" in
  check (Alcotest.float 1e-9) "interval p99 reflects only the new slow tail" 0.1
    p99

(* ------------------------------------------------------------------ *)
(* Adaptive span sampling.                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_head_sampling () =
  let sm = Span.sampler ~ratio:64 () in
  check Alcotest.int "ratio" 64 (Span.ratio sm);
  check Alcotest.bool "multiple of ratio is in-sample" true
    (Span.sampled_in sm 128L);
  check Alcotest.bool "off-residue id is out" false (Span.sampled_in sm 129L);
  (* Pure hash of (id, ratio): identical across sampler instances, which
     is what lets every recorder of a site share the decision. *)
  let sm' = Span.sampler ~ratio:64 () in
  for i = 1 to 1000 do
    let id = Int64.of_int (i * 7919) in
    if Span.sampled_in sm id <> Span.sampled_in sm' id then
      Alcotest.failf "sampling decision for %Ld not instance-independent" id
  done;
  match Span.sampler ~ratio:0 () with
  | (_ : Span.sampler) -> Alcotest.fail "ratio 0 accepted"
  | exception Invalid_argument _ -> ()

let test_sampler_tail_keep () =
  let sm = Span.sampler ~ratio:64 () in
  let a = Span.create ~capacity:64 ~host:"a" ~sampler:sm () in
  let b = Span.create ~capacity:64 ~host:"b" ~sampler:sm () in
  let out1 = 129L and out2 = 130L and inn = 128L in
  (* Out-of-sample chain that ends in a drop: its parked context — even
     context parked on ANOTHER recorder sharing the sampler — is
     retro-flushed, so the anomaly keeps its whole causal history. *)
  Span.finish a (Span.start a) ~id:out1 "engine.seal";
  Span.finish b (Span.start b) ~id:out1 ~outcome:"drop:mac" "engine.receive";
  check Alcotest.int "sender context retro-flushed" 1
    (List.length (Span.spans a));
  check Alcotest.int "terminal recorded at the receiver" 1
    (List.length (Span.spans b));
  (* Out-of-sample chain with a normal terminal: nothing retained. *)
  Span.finish a (Span.start a) ~id:out2 "engine.seal";
  Span.finish b (Span.start b) ~id:out2 ~outcome:"delivered" "engine.receive";
  check Alcotest.int "normal out-of-sample chain discarded" 1
    (List.length (Span.spans a));
  check Alcotest.int "normal terminal discarded too" 1
    (List.length (Span.spans b));
  (* Head-sampled chain: retained in full as it happens. *)
  Span.finish a (Span.start a) ~id:inn "engine.seal";
  Span.finish b (Span.start b) ~id:inn ~outcome:"delivered" "engine.receive";
  let st = Span.sampler_stats sm in
  check Alcotest.int "kept (head-sampled terminals)" 1 st.Span.kept_chains;
  check Alcotest.int "promoted (anomaly tail-keep)" 1 st.Span.promoted_chains;
  check Alcotest.int "discarded normal chains" 1 st.Span.discarded_chains;
  check Alcotest.int "nothing left parked" 0 st.Span.pending_spans;
  (* Spans after promotion keep flowing to the ring. *)
  Span.finish a (Span.start a) ~id:out1 "replay.check";
  check Alcotest.int "post-promotion span recorded" 3
    (List.length (Span.spans a))

let test_sampler_eviction () =
  let sm = Span.sampler ~ratio:1_000_000 () in
  let r = Span.create ~capacity:64 ~sampler:sm () in
  (* One more undecided out-of-sample chain than the 16 384-span cap, one
     parked span each (no id is a multiple of the ratio): the cap evicts
     the oldest un-retained.  The second chain then concludes and the
     first is gone, so only the third may be evicted next. *)
  let id i = Int64.of_int ((i * 7) + 1) in
  for i = 1 to 16_385 do
    Span.finish r (Span.start r) ~id:(id i) "engine.seal"
  done;
  let st = Span.sampler_stats sm in
  check Alcotest.int "oldest chain evicted at the cap" 1 st.Span.evicted_chains;
  check Alcotest.int "cap holds" 16_384 st.Span.pending_spans;
  Span.finish r (Span.start r) ~id:(id 2) ~outcome:"delivered" "engine.receive";
  Span.finish r (Span.start r) ~id:(id 16_386) "engine.seal";
  Span.finish r (Span.start r) ~id:(id 16_387) "engine.seal";
  let st = Span.sampler_stats sm in
  check Alcotest.int "concluded and evicted chains are not evicted again" 2
    st.Span.evicted_chains;
  check Alcotest.int "cap still holds" 16_384 st.Span.pending_spans;
  check Alcotest.int "nothing reached the ring" 0 (List.length (Span.spans r))

let test_sampler_concluded_chains_leave_nothing () =
  (* Chains the head sample passes over (no id is a multiple of the
     ratio) park their first span and then conclude normally.  Nothing of
     a concluded chain may stay in the sampler: the words it retains do
     not grow with the chain count. *)
  let sm = Span.sampler ~ratio:1_000_000 () in
  let r = Span.create ~capacity:64 ~sampler:sm () in
  for i = 1 to 200_000 do
    let id = Int64.of_int ((i * 1_000_000) + 1) in
    Span.finish r (Span.start r) ~id "engine.seal";
    Span.finish r (Span.start r) ~id ~outcome:"delivered" "engine.receive"
  done;
  let st = Span.sampler_stats sm in
  check Alcotest.int "every chain discarded" 200_000 st.Span.discarded_chains;
  check Alcotest.int "nothing parked" 0 st.Span.pending_spans;
  let words = Obj.reachable_words (Obj.repr sm) in
  if words > 10_000 then
    Alcotest.failf "sampler retains %d words after 200 000 concluded chains" words

(* ------------------------------------------------------------------ *)
(* Exposition-format details: # HELP lines and escaping.                *)
(* ------------------------------------------------------------------ *)

let test_to_text_help_and_escaping () =
  let m = Metrics.create () in
  Metrics.register_probe m "fbs.engine.sends" (fun () -> 1);
  Metrics.register_probe m "sealed\nsince \"boot\" \\ total" (fun () -> 1);
  let h = Metrics.histogram ~buckets:[| 0.5 |] m "lat" in
  Metrics.observe h 0.1;
  let text = Metrics.to_text m in
  let has sub =
    check Alcotest.bool ("exposition contains " ^ String.escaped sub) true
      (contains sub text)
  in
  (* Help text: backslash and newline escape, quotes pass through. *)
  has "fbsr counter sealed\\nsince \"boot\" \\\\ total";
  (* Every metric gets a HELP line naming the original dotted metric the
     name-folding obscured. *)
  has "# HELP fbs_engine_sends fbsr counter fbs.engine.sends";
  has "# HELP lat fbsr histogram lat";
  (* HELP precedes TYPE for the same metric. *)
  (let help_idx =
     let rec find i =
       if i + 24 > String.length text then Alcotest.fail "HELP line missing"
       else if String.sub text i 24 = "# HELP fbs_engine_sends " then i
       else find (i + 1)
     in
     find 0
   in
   let type_idx =
     let rec find i =
       if i + 24 > String.length text then Alcotest.fail "TYPE line missing"
       else if String.sub text i 24 = "# TYPE fbs_engine_sends " then i
       else find (i + 1)
     in
     find 0
   in
   check Alcotest.bool "# HELP precedes # TYPE" true (help_idx < type_idx));
  (* Bucket labels go through the label-value escaper (quotes included). *)
  has "lat_bucket{le=\"0.5\"} 1"

(* ------------------------------------------------------------------ *)
(* Stats nearest-rank percentile edges.                                 *)
(* ------------------------------------------------------------------ *)

let test_stats_nearest_rank_edges () =
  (* n = 1: every percentile is the single sample. *)
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "singleton p%g" p)
        5.0
        (Stats.percentile [| 5.0 |] p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* Ties: nearest-rank lands inside the tied run. *)
  let tied = [| 1.0; 1.0; 1.0; 2.0 |] in
  check (Alcotest.float 0.0) "p50 of tied run" 1.0 (Stats.percentile tied 50.0);
  check (Alcotest.float 0.0) "p75 hits the last tie" 1.0
    (Stats.percentile tied 75.0);
  check (Alcotest.float 0.0) "p99 reaches the outlier" 2.0
    (Stats.percentile tied 99.0);
  (* p = 0 clamps to the minimum rather than rank 0. *)
  check (Alcotest.float 0.0) "p0 is the minimum" 1.0 (Stats.percentile tied 0.0);
  check (Alcotest.float 0.0) "median of an even count (nearest rank)" 1.0
    (Stats.median tied);
  (* Unsorted input is sorted on a copy, input untouched. *)
  let xs = [| 3.0; 1.0; 2.0 |] in
  check (Alcotest.float 0.0) "unsorted input" 2.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 0.0) "input not mutated" 3.0 xs.(0);
  (* Empty data and out-of-range p are errors, not silent zeros. *)
  (match Stats.percentile [||] 50.0 with
  | (_ : float) -> Alcotest.fail "empty data accepted"
  | exception Invalid_argument _ -> ());
  match Stats.percentile [| 1.0 |] 100.5 with
  | (_ : float) -> Alcotest.fail "p > 100 accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "metrics"
    [
      ( "metrics",
        [
          Alcotest.test_case "kind collisions rejected" `Quick
            test_kind_collision_rejected;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "probes sum" `Quick test_probe_summing;
          Alcotest.test_case "sub views scope" `Quick test_sub_scoping;
          Alcotest.test_case "prometheus text exposition" `Quick test_to_text;
          Alcotest.test_case "help lines and escaping" `Quick
            test_to_text_help_and_escaping;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "observe/estimate/top/bounds" `Quick
            test_sketch_basic;
          Alcotest.test_case "million-observation zipf fidelity" `Quick
            test_sketch_zipf_fidelity;
          Alcotest.test_case "canonical merge, byte for byte" `Quick
            test_sketch_merge_canonical;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "cadence grid and ring overflow" `Quick
            test_timeseries_tick_ring;
          Alcotest.test_case "base+delta json round-trip" `Quick
            test_timeseries_json_roundtrip;
          Alcotest.test_case "interval p99" `Quick test_timeseries_interval_p99;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "head sampling is a pure hash" `Quick
            test_sampler_head_sampling;
          Alcotest.test_case "anomaly tail-keep across recorders" `Quick
            test_sampler_tail_keep;
          Alcotest.test_case "pending-cap eviction" `Quick test_sampler_eviction;
          Alcotest.test_case "concluded chains leave nothing parked" `Quick
            test_sampler_concluded_chains_leave_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile edges" `Quick
            test_stats_nearest_rank_edges;
        ] );
      ( "json",
        [
          Alcotest.test_case "metrics round-trip" `Quick
            test_metrics_json_roundtrip;
          Alcotest.test_case "parser round-trip" `Quick
            test_json_parse_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "ids and ambient context" `Quick test_span_ids;
          Alcotest.test_case "ring bounds and disabled recorder" `Quick
            test_span_ring;
          Alcotest.test_case "json round-trip and timeline" `Quick
            test_span_json_roundtrip;
          Alcotest.test_case "chrome trace-event export" `Quick
            test_span_chrome;
          Alcotest.test_case "per-stage percentiles" `Quick
            test_span_stage_stats;
          Alcotest.test_case "per-stage latency histograms" `Quick
            test_span_metrics_histograms;
        ] );
    ]
