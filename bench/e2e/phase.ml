(* The measured phase of one round of a workload run (see Run).

   Every workload reports each completed op here.  The first [warm]
   completions are warm-up (set-up time, not measured); the next [ops]
   are measured and split into [nblocks] equal blocks of completions;
   anything completing after that is the drain.  The end-to-end values
   come from the fastest blocks of all rounds (see [estimate]).

   In a traced run even blocks are traced and odd blocks are not, so the
   same process measures its own tracing overhead; per-layer timings
   come from the traced blocks only. *)

let nblocks = 32

type snapshot = {
  wall_ns : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  totals : Probe.totals;
}

let snapshot () =
  let s = Gc.quick_stat () in
  {
    wall_ns = Probe.now_ns ();
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
    totals = Probe.totals ();
  }

type t = {
  warm : int;
  ops : int;
  traced : bool;
  mutable on_warm : unit -> unit;
      (* called once, at the last warm-up completion: an event-driven
         workload stops its simulation here *)
  lat_ns : float array;  (* one sample per completion call, in order *)
  sim_lat_s : float array;
  block_first : int array;  (* first sample index of each block, then the end *)
  block_ops : int array;
  block_bytes : int array;
  snaps : snapshot option array;  (* [0]: measured start; [b+1]: end of block b *)
  mutable seen : int;  (* completions so far, warm-up included *)
  mutable measured : int;  (* measured ops so far *)
  mutable samples : int;
  mutable block : int;
}

let create ~warm ~ops ~traced =
  if ops < nblocks then invalid_arg "Phase.create: fewer ops than blocks";
  {
    warm;
    ops;
    traced;
    on_warm = ignore;
    lat_ns = Array.make ops 0.0;
    sim_lat_s = Array.make ops 0.0;
    block_first = Array.make (nblocks + 1) 0;
    block_ops = Array.make nblocks 0;
    block_bytes = Array.make nblocks 0;
    snaps = Array.make (nblocks + 1) None;
    seen = 0;
    measured = 0;
    samples = 0;
    block = 0;
  }

let warm_done p = p.seen >= p.warm
let started p = Option.is_some p.snaps.(0)
let finished p = p.measured >= p.ops
let traced_block p b = p.traced && b mod 2 = 0

(* Call once the warm-up has completed and the harness is ready to
   measure. *)
let start p =
  Probe.clear_hists ();
  Probe.on := traced_block p 0;
  p.snaps.(0) <- Some (snapshot ())

let block_end p b = (b + 1) * p.ops / nblocks

(* [ops] ops completed together (one latency sample stands for all of
   them), carrying [bytes] of verified payload. *)
let complete p ~ops ~bytes ~lat_ns ~sim_lat_s =
  p.seen <- p.seen + ops;
  if p.seen - ops < p.warm then begin
    if warm_done p then p.on_warm ()
  end
  else if started p && not (finished p) then begin
    p.lat_ns.(p.samples) <- float_of_int lat_ns;
    p.sim_lat_s.(p.samples) <- sim_lat_s;
    p.samples <- p.samples + 1;
    p.measured <- p.measured + ops;
    p.block_ops.(p.block) <- p.block_ops.(p.block) + ops;
    p.block_bytes.(p.block) <- p.block_bytes.(p.block) + bytes;
    while p.block < nblocks && p.measured >= block_end p p.block do
      let b = p.block in
      p.snaps.(b + 1) <- Some (snapshot ());
      p.block_first.(b + 1) <- p.samples;
      p.block <- b + 1;
      Probe.on := traced_block p (b + 1);
      Probe.child_ns := 0
    done
  end

let snap p i =
  match p.snaps.(i) with Some s -> s | None -> invalid_arg "Phase: unfinished block"

let block_ns p b = (snap p (b + 1)).wall_ns - (snap p b).wall_ns

(* The median as Python's statistics.median takes it. *)
let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile a q = if Array.length a = 0 then 0.0 else Fbsr_util.Stats.percentile a (q *. 100.0)
let blocks = List.init nblocks Fun.id
let traced_blocks p = List.filter (traced_block p) blocks
let untraced_blocks p = List.filter (fun b -> not (traced_block p b)) blocks
let sum_over bs f = List.fold_left (fun acc b -> acc + f b) 0 bs
let ops_over p bs = sum_over bs (fun b -> p.block_ops.(b))
let wall_ns_over p bs = sum_over bs (block_ns p)

(* A measured block's raw figures, kept after its round's world is gone
   so that a run can pool the blocks of all its rounds. *)
type block = { b_ops : int; b_bytes : int; b_ns : int; b_lat_ns : float array }

let block p b =
  {
    b_ops = p.block_ops.(b);
    b_bytes = p.block_bytes.(b);
    b_ns = block_ns p b;
    b_lat_ns = Array.sub p.lat_ns p.block_first.(b) (p.block_first.(b + 1) - p.block_first.(b));
  }

let merge a b =
  {
    b_ops = a.b_ops + b.b_ops;
    b_bytes = a.b_bytes + b.b_bytes;
    b_ns = a.b_ns + b.b_ns;
    b_lat_ns = Array.append a.b_lat_ns b.b_lat_ns;
  }

(* Blocks [bs] merged in order until each holds at least [min_samples]
   latency samples, so that its p99 has ten samples beyond it; a short
   remainder joins the group before it.  Most workloads fill a block
   several times over; ttcp-fbs's blocks merge by fives. *)
let min_samples = 1000

let groups bs =
  let n b = Array.length b.b_lat_ns in
  let rec go acc = function
    | [] -> acc
    | b :: rest -> (
        match acc with
        | g :: acc' when n g < min_samples -> go (merge g b :: acc') rest
        | _ -> go (b :: acc) rest)
  in
  List.rev
    (match go [] bs with
    | last :: g :: acc when n last < min_samples -> merge g last :: acc
    | acc -> acc)

(* Block [b]'s end-to-end values. *)
let values b =
  let seconds = float_of_int b.b_ns *. 1e-9 in
  [
    ("goodput_MBps", float_of_int b.b_bytes /. seconds /. 1e6);
    ("ops_per_s", float_of_int b.b_ops /. seconds);
    ("lat_p50_us", percentile b.b_lat_ns 0.50 /. 1e3);
    ("lat_p99_us", percentile b.b_lat_ns 0.99 /. 1e3);
  ]

(* Blocks [bs]' values, per metric in block order. *)
let per_block bs =
  let each = List.map values bs in
  List.map (fun (name, _) -> (name, List.map (List.assoc name) each)) (List.hd each)

(* The best of blocks [bs], per metric: the highest rate, the lowest
   latency.  The reference machine's speed swings by up to 45% in
   episodes of seconds that only ever slow blocks down, so the median
   block measures how much of a run such an episode covered; the best
   block measures the code, and short blocks catch the machine's fast
   moments more often than long ones.  Each metric takes its own best
   block: a latency tail also moves with short pauses that barely touch
   a block's rate.  Over ten rpc-64 runs the lowest block p99 spread
   8.7%, the p99 of the fastest blocks pooled 20%. *)
let estimate bs =
  List.map
    (fun (name, vs) ->
      let higher = match Metric.find name with Some m -> m.Metric.higher_better | None -> false in
      (name, List.fold_left (if higher then Float.max else Float.min) (List.hd vs) vs))
    (per_block bs)

(* Simulated-time latency is deterministic, so it is taken over the
   whole measured phase. *)
let sim_lat_p99_ms p = percentile (Array.sub p.sim_lat_s 0 p.samples) 0.99 *. 1e3

(* Calls and self time of boundary index [i] over blocks [bs]. *)
let boundary_delta p bs i =
  let d f = sum_over bs (fun b -> f (snap p (b + 1)).totals - f (snap p b).totals) in
  (d (fun t -> t.Probe.t_calls.(i)), d (fun t -> t.Probe.t_self.(i)))

(* GC activity per measured op over the untraced blocks: the program as
   shipped, without the spans' own allocations. *)
let gc_per_op p =
  let bs = untraced_blocks p in
  let ops = float_of_int (max 1 (ops_over p bs)) in
  let d f = List.fold_left (fun acc b -> acc +. f (snap p (b + 1)) -. f (snap p b)) 0.0 bs in
  [
    ("gc.minor_words_per_op", d (fun s -> s.minor_words) /. ops);
    ("gc.promoted_words_per_op", d (fun s -> s.promoted_words) /. ops);
    ("gc.major_per_kop", d (fun s -> float_of_int s.major_collections) /. ops *. 1000.0);
  ]
