(* Health rules over the flight recorder.  See health.mli for the rule
   catalogue.  Everything reads the newest two Timeseries rows through
   [last2] — O(rules + columns) per cadence, nothing on the datapath. *)

module Ts = Fbsr_util.Timeseries
module Json = Fbsr_util.Json

type worst = { mutable at : float; mutable value : float; mutable detail : string }

type rule = {
  name : string;
  threshold : float;
  mutable rule_fired : int;
  mutable worst : worst option;
}

(* Interval samples a rate or balance rule needs before it may fire. *)
let min_samples = 32.0

type t = {
  ts : Ts.t;
  rules : rule list;
  tfkc_miss : rule;
  rfkc_miss : rule;
  forgery : rule;
  replay : rule;
  stage_p99 : rule;
  imbalance : rule;
  mutable seen : int; (* Timeseries.taken at the last evaluation *)
  mutable checks : int;
}

let create ~ts () =
  let r name threshold = { name; threshold; rule_fired = 0; worst = None } in
  let tfkc_miss = r "tfkc-miss-rate" 0.5 in
  let rfkc_miss = r "rfkc-miss-rate" 0.5 in
  let forgery = r "forgery-drops" 0.0 in
  let replay = r "replay-drops" 0.0 in
  let stage_p99 = r "stage-p99" 0.01 in
  let imbalance = r "shard-imbalance" 4.0 in
  {
    ts;
    rules = [ tfkc_miss; rfkc_miss; forgery; replay; stage_p99; imbalance ];
    tfkc_miss;
    rfkc_miss;
    forgery;
    replay;
    stage_p99;
    imbalance;
    seen = 0;
    checks = 0;
  }

(* Never evaluated ([check] is one branch on a disabled recorder), so its
   rules are never written and the value can be shared. *)
let none = create ~ts:Ts.none ()

let enabled t = Ts.enabled t.ts
let checks t = t.checks
let fired t = List.fold_left (fun a r -> a + r.rule_fired) 0 t.rules
let ok t = fired t = 0

let fire rule ~now ~value ~detail =
  rule.rule_fired <- rule.rule_fired + 1;
  match rule.worst with
  | Some w when w.value >= value -> ()
  | Some w ->
      w.at <- now;
      w.value <- value;
      w.detail <- detail
  | None -> rule.worst <- Some { at = now; value; detail }

let delta t name =
  let prev, last = Ts.last2 t.ts name in
  last -. prev

(* Interval miss rate of one cache level, gated on a minimum number of
   interval lookups so a cold 1-of-2 miss cannot page anyone. *)
let check_miss_rate t rule scope ~now =
  let misses = delta t ("fbs.cache." ^ scope ^ ".misses.total") in
  let hits = delta t ("fbs.cache." ^ scope ^ ".hits") in
  let lookups = misses +. hits in
  if lookups >= min_samples then begin
    let rate = misses /. lookups in
    if rate > rule.threshold then
      fire rule ~now ~value:rate
        ~detail:
          (Printf.sprintf "%s: %.0f misses / %.0f lookups this interval"
             scope misses lookups)
  end

let check_drop_delta t rule names ~now =
  let d = List.fold_left (fun a n -> a +. delta t n) 0.0 names in
  if d > rule.threshold then
    fire rule ~now ~value:d
      ~detail:(Printf.sprintf "%.0f drops this interval" d)

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let has_prefix ~prefix s =
  let ls = String.length s and lx = String.length prefix in
  ls >= lx && String.sub s 0 lx = prefix

let contains ~sub s =
  let ls = String.length s and lx = String.length sub in
  let rec go i = i + lx <= ls && (String.sub s i lx = sub || go (i + 1)) in
  go 0

let check_stage_p99 t ~now =
  List.iter
    (fun name ->
      if has_suffix ~suffix:".p99" name && contains ~sub:".stage." name then begin
        let _, p99 = Ts.last2 t.ts name in
        if p99 > t.stage_p99.threshold then
          fire t.stage_p99 ~now ~value:p99
            ~detail:(Printf.sprintf "%s = %.6fs" name p99)
      end)
    (Ts.names t.ts)

let check_imbalance t ~now =
  let deltas =
    List.filter_map
      (fun name ->
        if
          has_prefix ~prefix:"shard." name
          && has_suffix ~suffix:".fbs.engine.sends" name
        then Some (name, delta t name)
        else None)
      (Ts.names t.ts)
  in
  let n = List.length deltas in
  if n >= 2 then begin
    let total = List.fold_left (fun a (_, d) -> a +. d) 0.0 deltas in
    if total >= min_samples then begin
      let worst_name, worst =
        List.fold_left
          (fun ((_, bd) as b) ((_, d) as x) -> if d > bd then x else b)
          (List.hd deltas) (List.tl deltas)
      in
      let mean = total /. float_of_int n in
      if mean > 0.0 && worst > t.imbalance.threshold *. mean then
        fire t.imbalance ~now
          ~value:(worst /. mean)
          ~detail:
            (Printf.sprintf "%s: %.0f sends vs mean %.1f" worst_name worst
               mean)
    end
  end

let check t ~now =
  if Ts.enabled t.ts then begin
    let taken = Ts.taken t.ts in
    if taken > t.seen && Ts.kept t.ts >= 2 then begin
      t.seen <- taken;
      t.checks <- t.checks + 1;
      check_miss_rate t t.tfkc_miss "tfkc" ~now;
      check_miss_rate t t.rfkc_miss "rfkc" ~now;
      (* Columns named from the cause: a renamed cause cannot disarm a rule. *)
      check_drop_delta t t.forgery [ Engine.drop_metric Engine.Mac ] ~now;
      check_drop_delta t t.replay
        [ Engine.drop_metric Engine.Stale; Engine.drop_metric Engine.Duplicate ]
        ~now;
      check_stage_p99 t ~now;
      check_imbalance t ~now
    end
    else if taken > t.seen then t.seen <- taken
  end

let rule_to_json r =
  Json.Obj
    [
      ("rule", Json.String r.name);
      ("fired", Json.Int r.rule_fired);
      ("threshold", Json.Float r.threshold);
      ( "worst",
        match r.worst with
        | None -> Json.Null
        | Some w ->
            Json.Obj
              [
                ("at", Json.Float w.at);
                ("value", Json.Float w.value);
                ("detail", Json.String w.detail);
              ] );
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "fbsr-health/1");
      ("checks", Json.Int t.checks);
      ("fired", Json.Int (fired t));
      ("ok", Json.Bool (ok t));
      ("rules", Json.List (List.map rule_to_json t.rules));
    ]

let report ppf t =
  Format.fprintf ppf "health: %d checks, %d firings, %s@," t.checks (fired t)
    (if ok t then "ok" else "NOT ok");
  List.iter
    (fun r ->
      match r.worst with
      | None -> Format.fprintf ppf "  %-16s ok@," r.name
      | Some w ->
          Format.fprintf ppf "  %-16s fired %dx, worst %.4f at t=%.2f (%s)@,"
            r.name r.rule_fired w.value w.at w.detail)
    t.rules
