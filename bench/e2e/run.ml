(* One run of one workload, in rounds: each round sets the site up from
   scratch, measures an equal share of the run's ops and verifies them;
   the run then pools the rounds' blocks and set-up times and derives the
   metrics. *)

type check = {
  attempted : int;  (* ops offered over the whole kept run *)
  delivered : int;  (* ops completed and verified byte for byte *)
  counted : int;  (* ops some layer dropped and counted *)
  violations : string list;
}

type instance = {
  warm_up : unit -> unit;  (* drive the workload until the warm-up is done *)
  measure : unit -> unit;  (* drive the measured phase, then drain *)
  verify : unit -> check;
  layers : unit -> (string * float) list;  (* workload counters, per layer *)
  counters : unit -> (string * int) list;  (* exact, seed-reproducible *)
}

type workload = {
  name : string;
  sizes : seconds:float -> scale:float -> int * int;  (* warm-up, measured ops of one round *)
  create : seed:int -> traced:bool -> Phase.t -> instance;
}

type result = {
  workload : string;
  seed : int;
  traced : bool;
  seconds : float;
  scale : float;
  check : check;
  e2e : (string * float * float list) list;  (* value, and the samples it came from *)
  layers : (string * float) list;
  counters : (string * int) list;
}

let failed r = r.check.attempted - r.check.delivered
let correct r = r.check.violations = []

let violations_of check p =
  (if Phase.finished p then [] else [ "the measured phase did not complete" ])
  @ (if check.counted > 0 then
       [ Printf.sprintf "%d datagrams dropped by some layer" check.counted ]
     else [])
  @ (if check.delivered + check.counted <> check.attempted then
       [
         Printf.sprintf "%d offered, but %d delivered and %d counted as dropped"
           check.attempted check.delivered check.counted;
       ]
     else [])
  @ check.violations

(* The reference machine's speed swings by up to 45% in episodes of
   seconds.  Set-ups made back to back agreed within a few percent, while
   set-ups 20 s apart differed by up to 50%, so three set-ups in a row
   sampled one moment of the machine, and the median over ten runs jumped
   by 29% between two sets.  A run therefore measures in [rounds] rounds
   spread over its length, each with a set-up of its own, and setup_s is
   the median of their set-up times.  Every round builds the same world
   from the run's seed and offers it the same traffic, so rounds must
   count exactly alike.  The smoke run keeps two rounds, to stay short. *)
let rounds ~scale = if scale < 1.0 then 2 else 5

type round = {
  setup_s : float;
  heap_peak_mb : float;  (* the process's largest heap so far *)
  blocks : Phase.block list;
  round_check : check;
  round_layers : (string * float) list;
  round_counters : (string * int) list;
}

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let round w ~seed ~warm ~ops ~traced =
  Gc.compact ();
  Probe.reset ~host:w.name;
  (* A traced set-up is timed too: first-contact key fetches happen there. *)
  Probe.on := traced;
  let p = Phase.create ~warm ~ops ~traced in
  let t0 = Probe.now_ns () in
  let inst = w.create ~seed ~traced p in
  inst.warm_up ();
  let setup_s = float_of_int (Probe.now_ns () - t0) *. 1e-9 in
  if Phase.warm_done p then begin
    Phase.start p;
    inst.measure ()
  end;
  Probe.on := false;
  let check = inst.verify () in
  let heap_peak_mb = mb (Gc.quick_stat ()).Gc.top_heap_words in
  let measured = Phase.finished p in
  let layers =
    if not measured then []
    else begin
      Gc.full_major ();
      let live_mb = mb (Gc.stat ()).Gc.live_words in
      (("sim.lat_p99_ms", Phase.sim_lat_p99_ms p) :: Layers.of_phase p)
      @ (("gc.live_MB", live_mb) :: inst.layers ())
    end
  in
  {
    setup_s;
    heap_peak_mb;
    blocks = (if measured then Phase.groups (List.map (Phase.block p) Phase.blocks) else []);
    round_check = { check with violations = violations_of check p };
    round_layers = layers;
    round_counters = inst.counters ();
  }

let run w ~seed ~seconds ~scale ~traced =
  let k = rounds ~scale in
  let warm, ops = w.sizes ~seconds:(seconds /. float_of_int k) ~scale in
  let rec from i =
    if i = k then []
    else
      let r = round w ~seed ~warm ~ops ~traced in
      r :: from (i + 1)
  in
  let rs = from 0 in
  let first = List.hd rs in
  let sum f = List.fold_left (fun acc r -> acc + f r.round_check) 0 rs in
  let differing = List.filter (fun r -> r.round_counters <> first.round_counters) rs in
  let violations =
    List.concat
      (List.mapi
         (fun i r -> List.map (Printf.sprintf "round %d: %s" (i + 1)) r.round_check.violations)
         rs)
    @
    if differing = [] then []
    else
      [ Printf.sprintf "%d of %d rounds counted differently from the first" (List.length differing) k ]
  in
  let measured = List.for_all (fun r -> r.blocks <> []) rs in
  let e2e =
    if not measured then []
    else
      let blocks = List.concat_map (fun r -> r.blocks) rs in
      let per_block = Phase.per_block blocks and setups = List.map (fun r -> r.setup_s) rs in
      List.filter_map
        (fun (name, v) ->
          if List.exists (fun (x : Metric.t) -> x.name = name) Metric.e2e then
            Some (name, v, List.assoc name per_block)
          else None)
        (Phase.estimate blocks)
      @ [
          ("setup_s", Phase.median setups, setups);
          (* The first round's peak: later rounds start from a heap the
             earlier ones grew and compacted, and the peak over all
             rounds varied by up to 6% between seeds. *)
          ("heap_peak_MB", first.heap_peak_mb, [ first.heap_peak_mb ]);
        ]
  in
  (* Per layer, the median over the rounds. *)
  let layers =
    if not measured then []
    else
      List.map
        (fun (name, _) ->
          (name, Phase.median (List.map (fun r -> List.assoc name r.round_layers) rs)))
        first.round_layers
  in
  (* A layer name outside Metric.per_layer would silently read 0. *)
  let unknown = List.filter (fun (n, _) -> Metric.find n = None) layers in
  {
    workload = w.name;
    seed;
    traced;
    seconds;
    scale;
    check =
      {
        attempted = sum (fun c -> c.attempted);
        delivered = sum (fun c -> c.delivered);
        counted = sum (fun c -> c.counted);
        violations = violations @ List.map (fun (n, _) -> "unknown metric " ^ n) unknown;
      };
    e2e;
    layers;
    counters = first.round_counters;
  }
