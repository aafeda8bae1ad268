(* Per-datagram causal tracing.  See span.mli for the model: a bounded
   ring, a shared disabled value, and an [enabled] predicate so
   instrumented code pays one branch when tracing is off. *)

(* ---- Trace ids and the sidecar context ---------------------------------- *)

(* SplitMix64: a full-period 64-bit sequence with good bit diffusion, so
   ids from different subsystems (datagrams, MKD fetches) never collide
   within a process and truncated hex prefixes stay distinguishable.
   The state is an atomic draw counter — after the k-th draw the classic
   formulation's state is k * gamma, so mixing [gamma * (n + 1)] yields
   the identical id sequence while staying race-free when several shard
   domains allocate ids concurrently. *)
let id_state = Atomic.make 0

let fresh_id () =
  let n = Atomic.fetch_and_add id_state 1 in
  let z = Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (n + 1)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  if Int64.equal z 0L then 1L else z

(* The ambient trace context is per domain: a shard domain sealing one
   datagram must not see (or clobber) another shard's current id. *)
let current_id = Domain_shim.local_make (fun () -> 0L)
let current () = Domain_shim.local_get current_id
let set_current id = Domain_shim.local_set current_id id

let apply_with_current id f x =
  let saved = Domain_shim.local_get current_id in
  Domain_shim.local_set current_id id;
  match f x with
  | v ->
      Domain_shim.local_set current_id saved;
      v
  | exception e ->
      Domain_shim.local_set current_id saved;
      raise e

let with_current id f = apply_with_current id f ()

(* ---- Spans and recorders ------------------------------------------------ *)

type span = {
  seq : int;
  id : int64;
  stage : string;
  host : string;
  t_begin : float;
  t_end : float;
  cost : float;
  outcome : string;
  detail : (string * Json.t) list;
}

(* The seq counter is process-wide (not per recorder) so spans merged
   from several hosts sort into their true record order even when the
   simulated clock gives them identical timestamps.  Atomic, so per-shard
   recorders on separate domains still draw globally unique seqs. *)
let seq_state = Atomic.make 0

type t = {
  cap : int;
  host_label : string;
  clock : unit -> float;
  cost_clock : unit -> float;
  metrics : Metrics.t option;
  smp : sampler option;
  ring : span option array;
  mutable recorded : int;
}

(* A chain's fate is only known at its terminal span, usually on a
   different host's recorder than the spans already emitted (the sender's
   seal spans conclude at the receiver).  The sampler is therefore shared
   across a site's recorders: undecided spans park here tagged with their
   recorder, and the terminal span retro-flushes or discards them. *)
and sampler = {
  ratio : int; (* keep 1 in [ratio] chains by id hash; <= 1 keeps all *)
  pending : (int64, (t * span) list ref) Pending.t; (* first-parked order *)
  mutable pending_count : int;
  promoted : (int64, unit) Hashtbl.t; (* anomalous chains: keep everything *)
  mutable kept_chains : int;
  mutable promoted_chains : int;
  mutable discarded_chains : int;
  mutable evicted_chains : int;
}

let zero_clock () = 0.0

(* Parked spans beyond which the oldest undecided chains are evicted. *)
let pending_cap = 16384

let sampler ~ratio () =
  if ratio < 1 then invalid_arg "Span.sampler: ratio must be >= 1";
  {
    ratio;
    pending = Pending.create ();
    pending_count = 0;
    promoted = Hashtbl.create 64;
    kept_chains = 0;
    promoted_chains = 0;
    discarded_chains = 0;
    evicted_chains = 0;
  }

let ratio sm = sm.ratio
let sampled_in sm id = Int64.to_int id land max_int mod sm.ratio = 0

type sampler_stats = {
  kept_chains : int;
  promoted_chains : int;
  discarded_chains : int;
  evicted_chains : int;
  pending_spans : int;
}

let sampler_stats (sm : sampler) =
  {
    kept_chains = sm.kept_chains;
    promoted_chains = sm.promoted_chains;
    discarded_chains = sm.discarded_chains;
    evicted_chains = sm.evicted_chains;
    pending_spans = sm.pending_count;
  }

let create ?(capacity = 8192) ?(host = "") ?(clock = zero_clock) ?cost_clock
    ?metrics ?sampler () =
  if capacity < 0 then invalid_arg "Span.create: negative capacity";
  let cost_clock = Option.value cost_clock ~default:clock in
  {
    cap = capacity;
    host_label = host;
    clock;
    cost_clock;
    metrics;
    smp = sampler;
    ring = Array.make (max capacity 1) None;
    recorded = 0;
  }

let none = create ~capacity:0 ()
let enabled t = t.cap > 0

type timer = { t0 : float; c0 : float }

let zero_timer = { t0 = 0.0; c0 = 0.0 }

let start t =
  if t.cap = 0 then zero_timer else { t0 = t.clock (); c0 = t.cost_clock () }

let record t s =
  t.ring.(t.recorded mod t.cap) <- Some s;
  t.recorded <- t.recorded + 1

(* The one spelling of a drop terminal, for every layer. *)
let drop_outcome cause = "drop:" ^ cause
let is_drop outcome = String.starts_with ~prefix:"drop:" outcome

(* The tail-keep predicate: any span that ends a chain in a drop, a
   forgery/replay verdict, or that carries a degradation mark makes the
   whole chain worth keeping regardless of the head-sampling decision. *)
let is_anomaly s =
  is_drop s.outcome
  || s.outcome = "forged" || s.outcome = "replay"
  || List.mem_assoc "degraded" s.detail

let flush_pending sm id ~keep =
  match Pending.remove sm.pending id with
  | None -> ()
  | Some l ->
      sm.pending_count <- sm.pending_count - List.length !l;
      if keep then List.iter (fun (t, s) -> record t s) (List.rev !l)

let rec evict_oldest sm =
  if sm.pending_count > pending_cap then
    match Pending.pop_oldest sm.pending with
    | None -> ()
    | Some l ->
        sm.pending_count <- sm.pending_count - List.length !l;
        sm.evicted_chains <- sm.evicted_chains + 1;
        evict_oldest sm

let park sm t s =
  (match Pending.find sm.pending s.id with
  | Some l -> l := (t, s) :: !l
  | None -> Pending.add sm.pending s.id (ref [ (t, s) ]));
  sm.pending_count <- sm.pending_count + 1;
  evict_oldest sm

let sampled_record t sm s =
  if Int64.equal s.id 0L then record t s (* unattributed: never sampled out *)
  else if sampled_in sm s.id then begin
    if s.outcome <> "" then sm.kept_chains <- sm.kept_chains + 1;
    record t s
  end
  else if Hashtbl.mem sm.promoted s.id then record t s
  else if is_anomaly s then begin
    (* Tail-keep: retro-flush the chain's parked spans (wherever they were
       recorded), then let any later spans of this chain pass through. *)
    flush_pending sm s.id ~keep:true;
    if Hashtbl.length sm.promoted > 65536 then Hashtbl.reset sm.promoted;
    Hashtbl.replace sm.promoted s.id ();
    sm.promoted_chains <- sm.promoted_chains + 1;
    record t s
  end
  else if s.outcome <> "" then begin
    (* Normal terminal on a chain the head-sample passed over. *)
    flush_pending sm s.id ~keep:false;
    sm.discarded_chains <- sm.discarded_chains + 1
  end
  else park sm t s

let finish t tm ?(id = 0L) ?(outcome = "") ?(detail = []) stage =
  if t.cap > 0 then begin
    let id = if Int64.equal id 0L then current () else id in
    let seq = Atomic.fetch_and_add seq_state 1 in
    let t1 = t.clock () in
    let cost = t.cost_clock () -. tm.c0 in
    let s =
      {
        seq;
        id;
        stage;
        host = t.host_label;
        t_begin = tm.t0;
        t_end = t1;
        cost;
        outcome;
        detail;
      }
    in
    (* Stage histograms see every span: sampling thins the causal ring, it
       must not bias the latency distributions the bench gates read. *)
    (match t.metrics with
    | Some m -> Metrics.observe (Metrics.histogram m ("stage." ^ stage)) cost
    | None -> ());
    match t.smp with
    | None -> record t s
    | Some sm when sm.ratio <= 1 -> record t s
    | Some sm -> sampled_record t sm s
  end

let total t = t.recorded
let retained t = min t.recorded t.cap
let dropped t = t.recorded - retained t

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.recorded <- 0

let spans t =
  let n = retained t in
  let first = t.recorded - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.cap) with
      | Some s -> s
      | None -> assert false)

(* ---- Working with collected spans --------------------------------------- *)

let compare_span a b =
  match compare a.t_begin b.t_begin with 0 -> compare a.seq b.seq | c -> c

let collect ts = List.sort compare_span (List.concat_map spans ts)

let ids spans =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun s ->
      if Hashtbl.mem seen s.id then None
      else begin
        Hashtbl.add seen s.id ();
        Some s.id
      end)
    spans

let by_id id spans = List.filter (fun s -> Int64.equal s.id id) spans

(* ---- JSON round trip ---------------------------------------------------- *)

let hex_of_id id = Printf.sprintf "%016Lx" id

let id_of_hex s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Span.of_json: bad trace id %S" s)

let span_to_json s =
  Json.Obj
    [
      ("seq", Json.Int s.seq);
      ("id", Json.String (hex_of_id s.id));
      ("stage", Json.String s.stage);
      ("host", Json.String s.host);
      ("begin", Json.Float s.t_begin);
      ("end", Json.Float s.t_end);
      ("cost", Json.Float s.cost);
      ("outcome", Json.String s.outcome);
      ("detail", Json.Obj s.detail);
    ]

let to_json spans =
  Json.Obj
    [
      ("schema", Json.String "fbsr-spans/1");
      ("spans", Json.List (List.map span_to_json spans));
    ]

let span_of_json j =
  let str name d =
    match Json.member name j with Some (Json.String s) -> s | _ -> d
  in
  let num name =
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some f -> f
    | None -> 0.0
  in
  {
    seq =
      (match Json.member "seq" j with Some (Json.Int n) -> n | _ -> 0);
    id = id_of_hex (str "id" "0000000000000000");
    stage = str "stage" "?";
    host = str "host" "";
    t_begin = num "begin";
    t_end = num "end";
    cost = num "cost";
    outcome = str "outcome" "";
    detail =
      (match Json.member "detail" j with Some (Json.Obj kvs) -> kvs | _ -> []);
  }

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.String "fbsr-spans/1") -> ()
  | _ -> invalid_arg "Span.of_json: not an fbsr-spans/1 document");
  match Json.member "spans" j with
  | Some (Json.List l) -> List.map span_of_json l
  | _ -> invalid_arg "Span.of_json: missing spans array"

(* ---- Stage ordering ----------------------------------------------------- *)

(* Datapath order: sender-side stages first, then transit, then the
   receive side.  Stages outside this list (e.g. a future subsystem's)
   sort after it, alphabetically. *)
let stage_rank = function
  | "fam.classify" -> 0
  | "keying.derive" -> 1
  | "mkd.fetch" -> 2
  | "engine.seal" -> 3
  | "engine.send" -> 4
  | "netsim.link" -> 5
  | "stack.decap" -> 6
  | "replay.check" -> 7
  | "engine.receive" -> 8
  | _ -> max_int

let compare_stage a b =
  match compare (stage_rank a) (stage_rank b) with
  | 0 -> compare a b
  | c -> c

(* ---- Chrome trace-event exporter ---------------------------------------- *)

let chrome_json spans =
  let spans = List.sort compare_span spans in
  let index keys =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i k -> Hashtbl.replace tbl k (i + 1)) keys;
    tbl
  in
  let uniq l =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun k ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      l
  in
  let hosts = uniq (List.map (fun s -> s.host) spans) in
  let stages =
    List.sort compare_stage (uniq (List.map (fun s -> s.stage) spans))
  in
  let pid_of = index hosts and tid_of = index stages in
  let meta =
    List.map
      (fun h ->
        Json.Obj
          [
            ("ph", Json.String "M");
            ("name", Json.String "process_name");
            ("pid", Json.Int (Hashtbl.find pid_of h));
            ("args", Json.Obj [ ("name", Json.String (if h = "" then "(unattributed)" else h)) ]);
          ])
      hosts
    @ List.concat_map
        (fun h ->
          List.map
            (fun st ->
              Json.Obj
                [
                  ("ph", Json.String "M");
                  ("name", Json.String "thread_name");
                  ("pid", Json.Int (Hashtbl.find pid_of h));
                  ("tid", Json.Int (Hashtbl.find tid_of st));
                  ("args", Json.Obj [ ("name", Json.String st) ]);
                ])
            stages)
        hosts
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.stage);
            ("cat", Json.String "fbsr");
            ("ph", Json.String "X");
            ("ts", Json.Float (s.t_begin *. 1e6));
            ("dur", Json.Float (max 0.0 (s.t_end -. s.t_begin) *. 1e6));
            ("pid", Json.Int (Hashtbl.find pid_of s.host));
            ("tid", Json.Int (Hashtbl.find tid_of s.stage));
            ( "args",
              Json.Obj
                ([
                   ("trace_id", Json.String (hex_of_id s.id));
                   ("outcome", Json.String s.outcome);
                   ("cost_us", Json.Float (s.cost *. 1e6));
                 ]
                @ s.detail) );
          ])
      spans
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

(* ---- Plain-text timeline ------------------------------------------------ *)

let pp_detail ppf detail =
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.to_string v))
    detail

let pp_flow ppf id spans =
  let t0 =
    List.fold_left (fun acc s -> min acc s.t_begin) infinity spans
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let terminal =
    List.fold_left
      (fun acc s -> if s.outcome <> "" then s.outcome else acc)
      "(in flight)" spans
  in
  Format.fprintf ppf "trace %s  %d span(s)  %s@." (hex_of_id id)
    (List.length spans) terminal;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %+12.1fus %-14s %-15s %9.1fus%s%a@."
        ((s.t_begin -. t0) *. 1e6)
        s.stage
        (if s.host = "" then "-" else s.host)
        (max 0.0 (s.t_end -. s.t_begin) *. 1e6)
        (if s.outcome = "" then "" else "  [" ^ s.outcome ^ "]")
        pp_detail s.detail)
    spans

let pp_timeline ?id ppf all =
  let all = List.sort compare_span all in
  let flow_ids =
    match id with Some id -> [ id ] | None -> ids all
  in
  List.iteri
    (fun i fid ->
      if i > 0 then Format.pp_print_newline ppf ();
      pp_flow ppf fid (by_id fid all))
    flow_ids

(* ---- Per-stage latency distribution ------------------------------------- *)

type stage_stat = {
  stat_stage : string;
  count : int;
  p50 : float;
  p99 : float;
  worst : float;
}

(* Nearest-rank percentile on a sorted array: the smallest value with at
   least q of the mass at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let stage_stats spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find tbl s.stage with Not_found -> [] in
      Hashtbl.replace tbl s.stage (s.cost :: l))
    spans;
  Hashtbl.fold (fun stage costs acc -> (stage, costs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_stage a b)
  |> List.map (fun (stage, costs) ->
         let arr = Array.of_list costs in
         Array.sort compare arr;
         {
           stat_stage = stage;
           count = Array.length arr;
           p50 = percentile arr 0.50;
           p99 = percentile arr 0.99;
           worst = (if Array.length arr = 0 then 0.0 else arr.(Array.length arr - 1));
         })
