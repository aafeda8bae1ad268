(* Wall-clock instrumentation that the benchmark wraps around its own
   calls into each layer's public entry points.  Nothing here reaches
   inside the library: a boundary is timed from the outside, and a
   boundary's self time is its duration minus the boundaries nested in it
   (an rx frame whose app upcall sends the next request reports only the
   IP/FBS/transport work, not the upcall or the send).

   Everything is module-level state: the load comes from one OS thread,
   and the sharded workload only times calls made from the main domain. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Log-linear histogram of non-negative ints: 32 sub-buckets per power
   of two, so a quantile is off by at most 1/32 of its value.  Fixed
   size and allocation-free, so recording never perturbs the GC numbers
   it sits next to. *)
module Hist = struct
  let sub_bits = 5
  let sub = 1 lsl sub_bits

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make (64 * sub) 0; n = 0 }

  let index v =
    if v < sub then max v 0
    else begin
      let msb = ref 0 and x = ref v in
      while !x >= 2 * sub do
        x := !x lsr 1;
        incr msb
      done;
      ((!msb + 1) * sub) + (!x - sub)
    end

  let lower_bound i =
    if i < sub then i
    else
      let shift = (i / sub) - 1 in
      (sub + (i mod sub)) lsl shift

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let merge hs =
    let m = create () in
    List.iter
      (fun h ->
        Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) h.counts;
        m.n <- m.n + h.n)
      hs;
    m

  (* Nearest-rank quantile, reported as the bucket's lower bound. *)
  let quantile t q =
    if t.n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
      let i = ref 0 and seen = ref t.counts.(0) in
      while !seen < rank do
        incr i;
        seen := !seen + t.counts.(!i)
      done;
      lower_bound !i
    end
end

type boundary = {
  id : int;  (* position in [boundaries], oldest first *)
  name : string;
  mutable calls : int;
  mutable self_ns : int;
  hist : Hist.t;
  detail : (string * Fbsr_util.Json.t) list;
      (* span detail naming this boundary as a parent, built once *)
}

let boundaries : boundary list ref = ref []

let boundary name =
  let b =
    {
      id = List.length !boundaries;
      name;
      calls = 0;
      self_ns = 0;
      hist = Hist.create ();
      detail = [ ("parent", Fbsr_util.Json.String name) ];
    }
  in
  boundaries := b :: !boundaries;
  b

(* The root of every span chain: time spent in the event loop or the
   harness, outside any timed boundary.  It is never called. *)
let loop = boundary "loop"

(* The layer entry points the workloads call. *)
let tx = boundary "tx" (* Udp_stack.send / Minitcp.send *)
let rx_src = boundary "rx.src" (* Host.ip_input on op-originating hosts *)
let rx_dst = boundary "rx.dst" (* Host.ip_input on serving hosts *)
let ca = boundary "ca" (* Host.ip_input on the key server *)
let app = boundary "app" (* the benchmark's own upcalls *)
let send_all = boundary "sharded.send_all"
let receive_all = boundary "sharded.receive_all"
let draw = boundary "zipf.draw" (* the sharded workload's generator *)

let on = ref false
let child_ns = ref 0
let current = ref loop
let op_id = ref 0
let origin_ns = ref 0

(* Spans are kept in a bounded in-memory ring and written at the end of
   the run.  Every boundary is timed on every traced call, but only one
   call in [span_every] is kept as a span: recording costs an allocation
   that the ring then promotes, and recording them all would tax the
   smallest ops by several percent.  The recorder's clock reads the
   timestamps already taken for the boundary, so a span costs no extra
   clock reads. *)
let span_every = 64
let span_capacity = 16384
let span_clock = ref 0.0
let spans = ref Fbsr_util.Span.none

let clear_hists () =
  List.iter
    (fun b ->
      Array.fill b.hist.Hist.counts 0 (Array.length b.hist.Hist.counts) 0;
      b.hist.Hist.n <- 0)
    !boundaries

let reset ~host =
  List.iter
    (fun b ->
      b.calls <- 0;
      b.self_ns <- 0)
    !boundaries;
  clear_hists ();
  on := false;
  child_ns := 0;
  current := loop;
  op_id := 0;
  origin_ns := now_ns ();
  spans :=
    Fbsr_util.Span.create ~capacity:span_capacity ~host ~clock:(fun () -> !span_clock) ()

(* The app calls this when it starts or completes an op; every span that
   finishes afterwards (until the next report) carries that op's id. *)
let report_op id = op_id := id

let seconds ns = float_of_int (ns - !origin_ns) *. 1e-9

(* [call b f x]: run [f x], timed as boundary [b] when tracing is on. *)
let call b f x =
  if not !on then f x
  else begin
    let saved_child = !child_ns and parent = !current in
    child_ns := 0;
    current := b;
    let t0 = now_ns () in
    let r = f x in
    let t1 = now_ns () in
    let self = t1 - t0 - !child_ns in
    b.calls <- b.calls + 1;
    b.self_ns <- b.self_ns + self;
    Hist.add b.hist self;
    child_ns := saved_child + (t1 - t0);
    current := parent;
    if b.calls mod span_every = 0 then begin
      span_clock := seconds t0;
      let tm = Fbsr_util.Span.start !spans in
      span_clock := seconds t1;
      Fbsr_util.Span.finish !spans tm ~id:(Int64.of_int !op_id) ~detail:parent.detail b.name
    end;
    r
  end

let call2 b f x y = if not !on then f x y else call b (f x) y

(* An rx frame's span takes the op id that the app upcall inside it
   reports; frames with no upcall (ACKs, fragments, key fetches) get 0. *)
let rx b f x =
  if !on then op_id := 0;
  call b f x

(* Every boundary's calls and self time so far, indexed by [id]. *)
type totals = { t_calls : int array; t_self : int array }

let totals () =
  let bs = Array.of_list (List.rev !boundaries) in
  { t_calls = Array.map (fun b -> b.calls) bs; t_self = Array.map (fun b -> b.self_ns) bs }

let collected_spans () = Fbsr_util.Span.spans !spans
