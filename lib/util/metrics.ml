(* Unified metrics registry.

   Every subsystem in the repo keeps measurement state — engine drop
   counters, cache three-C statistics, MKD retransmission counts, link
   fault tallies — and before this module each was a module-private record
   with its own ad-hoc accessors.  The registry gives them one namespace
   (dotted names: "fbs.engine.drops.mac", "netsim.link.corrupted"), one
   read path, and one serializer, without touching the hot paths.

   Two kinds of metric coexist:

   - *owned* cells — counters, gauges and log-bucket histograms allocated
     by [counter]/[gauge]/[histogram].  Updates are single mutable-field
     stores (no allocation, no hashing: the handle is the cell), so they
     are safe on per-datagram paths.

   - *probes* — closures registered over existing mutable records with
     [register_probe]/[register_probe_f].  The record keeps being updated
     exactly as before (zero behavior change); the registry evaluates the
     closure only when read.  Several probes may share one name, in which
     case reads return their SUM — registering every host's engine under
     the same name yields site-wide totals for free, while per-host views
     live under a [sub]-scoped prefix.

   A registry is cheap (one hashtable); [default] is the process-wide one.
   [sub] returns a view onto the same table with a longer dotted prefix,
   so one registry can hold "host.10.0.0.1.fbs.engine.sends" next to the
   aggregated "fbs.engine.sends". *)

type counter = { name : string; mutable count : int }
type gauge = { g_name : string; mutable value : float }

(* Log-scale histogram: bucket [i] counts observations v with
   bounds.(i-1) < v <= bounds.(i); an implicit overflow bucket counts
   v > bounds.(last).  Bounds are fixed at creation (lo * base^i), so
   [observe] is a branch-and-increment scan — no allocation. *)
type histogram = {
  h_name : string;
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable observations : int;
  mutable sum : float;
}

type cell =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Probe of (unit -> int) list ref
  | Probe_f of (unit -> float) list ref

type t = {
  prefix : string;
  cells : (string, cell) Hashtbl.t;
  help : (string, string) Hashtbl.t; (* full name -> # HELP text *)
}

let create ?(scope = "") () =
  {
    prefix = (if scope = "" then "" else scope ^ ".");
    cells = Hashtbl.create 64;
    help = Hashtbl.create 16;
  }

let default = create ()

let sub t scope =
  if scope = "" then t else { t with prefix = t.prefix ^ scope ^ "." }

let scope t = t.prefix

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Probe _ -> "probe"
  | Probe_f _ -> "float probe"

let clash full cell want =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" full
       (kind_name cell) want)

(* ------------------------------------------------------------------ *)
(* Owned cells                                                         *)
(* ------------------------------------------------------------------ *)

let counter t name =
  let full = t.prefix ^ name in
  match Hashtbl.find_opt t.cells full with
  | Some (Counter c) -> c
  | Some cell -> clash full cell "counter"
  | None ->
      let c = { name = full; count = 0 } in
      Hashtbl.replace t.cells full (Counter c);
      c

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotone (by < 0)";
  c.count <- c.count + by

let counter_value c = c.count
let counter_name c = c.name

let gauge t name =
  let full = t.prefix ^ name in
  match Hashtbl.find_opt t.cells full with
  | Some (Gauge g) -> g
  | Some cell -> clash full cell "gauge"
  | None ->
      let g = { g_name = full; value = 0.0 } in
      Hashtbl.replace t.cells full (Gauge g);
      g

let set g v = g.value <- v
let add g v = g.value <- g.value +. v
let gauge_value g = g.value
let gauge_name g = g.g_name

let default_buckets =
  (* Five buckets per decade from 1 microsecond to 100 seconds: suits both
     simulated-time waits (MKD backoff) and wall-clock timings. *)
  lazy
    (let lo = 1e-6 and per_decade = 5 and decades = 8 in
     Array.init
       (per_decade * decades)
       (fun i -> lo *. (10.0 ** (float_of_int i /. float_of_int per_decade))))

let histogram ?buckets t name =
  let full = t.prefix ^ name in
  match Hashtbl.find_opt t.cells full with
  | Some (Histogram h) -> h
  | Some cell -> clash full cell "histogram"
  | None ->
      let bounds =
        match buckets with
        | Some b ->
            if Array.length b = 0 then
              invalid_arg "Metrics.histogram: empty bucket list";
            Array.iteri
              (fun i v ->
                if i > 0 && v <= b.(i - 1) then
                  invalid_arg "Metrics.histogram: bounds must increase")
              b;
            Array.copy b
        | None -> Array.copy (Lazy.force default_buckets)
      in
      let h =
        {
          h_name = full;
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          observations = 0;
          sum = 0.0;
        }
      in
      Hashtbl.replace t.cells full (Histogram h);
      h

let observe h v =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.observations <- h.observations + 1;
  h.sum <- h.sum +. v

(* Time [f] with the caller's clock and record the elapsed span — the
   registry stays clock-agnostic (simulated vs wall time). *)
let time h ~clock f =
  let t0 = clock () in
  let finally () = observe h (clock () -. t0) in
  match f () with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

let histogram_count h = h.observations
let histogram_sum h = h.sum

let histogram_buckets h =
  let lower i = if i = 0 then Float.neg_infinity else h.bounds.(i - 1) in
  let upper i =
    if i = Array.length h.bounds then Float.infinity else h.bounds.(i)
  in
  List.init (Array.length h.counts) (fun i -> (lower i, upper i, h.counts.(i)))

(* ------------------------------------------------------------------ *)
(* Probes over existing records                                        *)
(* ------------------------------------------------------------------ *)

let register_probe t name f =
  let full = t.prefix ^ name in
  match Hashtbl.find_opt t.cells full with
  | Some (Probe fs) -> fs := f :: !fs
  | Some cell -> clash full cell "probe"
  | None -> Hashtbl.replace t.cells full (Probe (ref [ f ]))

let register_probe_f t name f =
  let full = t.prefix ^ name in
  match Hashtbl.find_opt t.cells full with
  | Some (Probe_f fs) -> fs := f :: !fs
  | Some cell -> clash full cell "float probe"
  | None -> Hashtbl.replace t.cells full (Probe_f (ref [ f ]))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let mem t name = Hashtbl.mem t.cells (t.prefix ^ name)

let read_int = function
  | Counter c -> c.count
  | Gauge g -> int_of_float g.value
  | Histogram h -> h.observations
  | Probe fs -> List.fold_left (fun acc f -> acc + f ()) 0 !fs
  | Probe_f fs ->
      int_of_float (List.fold_left (fun acc f -> acc +. f ()) 0.0 !fs)

let read_float = function
  | Counter c -> float_of_int c.count
  | Gauge g -> g.value
  | Histogram h -> h.sum
  | Probe fs -> float_of_int (List.fold_left (fun acc f -> acc + f ()) 0 !fs)
  | Probe_f fs -> List.fold_left (fun acc f -> acc +. f ()) 0.0 !fs

let get t name =
  match Hashtbl.find_opt t.cells (t.prefix ^ name) with
  | Some cell -> read_int cell
  | None -> invalid_arg (Printf.sprintf "Metrics.get: unknown metric %S" (t.prefix ^ name))

let get_float t name =
  match Hashtbl.find_opt t.cells (t.prefix ^ name) with
  | Some cell -> read_float cell
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics.get_float: unknown metric %S" (t.prefix ^ name))

let in_scope t full = String.length t.prefix = 0 || String.starts_with ~prefix:t.prefix full

let names t =
  Hashtbl.fold (fun k _ acc -> if in_scope t k then k :: acc else acc) t.cells []
  |> List.sort String.compare

type value =
  | Int of int
  | Float of float
  | Hist of { count : int; sum : float; buckets : (float * float * int) list }

let snapshot t =
  List.map
    (fun name ->
      let v =
        match Hashtbl.find_opt t.cells name with
        | Some (Gauge g) -> Float g.value
        | Some (Probe_f fs) ->
            Float (List.fold_left (fun acc f -> acc +. f ()) 0.0 !fs)
        | Some (Histogram h) ->
            Hist { count = h.observations; sum = h.sum; buckets = histogram_buckets h }
        | Some cell -> Int (read_int cell)
        | None -> assert false
      in
      (name, v))
    (names t)

(* Zero every owned cell.  Probes read live records the registry does not
   own, so they are left alone (reset those at their source). *)
let reset t =
  Hashtbl.iter
    (fun name cell ->
      if in_scope t name then
        match cell with
        | Counter c -> c.count <- 0
        | Gauge g -> g.value <- 0.0
        | Histogram h ->
            Array.fill h.counts 0 (Array.length h.counts) 0;
            h.observations <- 0;
            h.sum <- 0.0
        | Probe _ | Probe_f _ -> ())
    t.cells

let to_json t =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Int i -> Json.Int i
           | Float f -> Json.Float f
           | Hist { count; sum; buckets } ->
               Json.Obj
                 [
                   ("count", Json.Int count);
                   ("sum", Json.Float sum);
                   ( "buckets",
                     Json.List
                       (List.filter_map
                          (fun (_, hi, n) ->
                            if n = 0 then None
                            else Some (Json.List [ Json.Float hi; Json.Int n ]))
                          buckets) );
                 ] ))
       (snapshot t))

let pp ppf t =
  List.iter
    (fun (name, v) ->
      match v with
      | Int i -> Fmt.pf ppf "%s %d@." name i
      | Float f -> Fmt.pf ppf "%s %g@." name f
      | Hist { count; sum; _ } -> Fmt.pf ppf "%s count=%d sum=%g@." name count sum)
    (snapshot t)

(* ------------------------------------------------------------------ *)
(* Prometheus-style exposition                                         *)
(* ------------------------------------------------------------------ *)

(* Metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted namespace maps
   onto it with '.' (and anything else exotic) folded to '_', and a
   leading digit guarded with '_'. *)
let prometheus_name name =
  let mapped =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Escaping for # HELP text and label values per the exposition format:
   backslash and newline always; double quotes additionally inside label
   values. *)
let prometheus_escape ?(quote = false) s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let describe t name text = Hashtbl.replace t.help (t.prefix ^ name) text

let prometheus_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_text t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let head name p kind =
    (* # HELP precedes # TYPE; registered text wins, otherwise a generated
       line naming the original dotted metric (which the name folding may
       have obscured). *)
    let help =
      match Hashtbl.find_opt t.help name with
      | Some h -> h
      | None -> Printf.sprintf "fbsr %s %s" kind name
    in
    line "# HELP %s %s" p (prometheus_escape help);
    line "# TYPE %s %s" p kind
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.cells name with
      | None -> ()
      | Some cell -> (
          let p = prometheus_name name in
          match cell with
          | Counter c ->
              head name p "counter";
              line "%s %d" p c.count
          | Probe fs ->
              (* Probes read monotone subsystem tallies; expose as counters. *)
              head name p "counter";
              line "%s %d" p (List.fold_left (fun acc f -> acc + f ()) 0 !fs)
          | Gauge g ->
              head name p "gauge";
              line "%s %s" p (prometheus_float g.value)
          | Probe_f fs ->
              head name p "gauge";
              line "%s %s" p
                (prometheus_float
                   (List.fold_left (fun acc f -> acc +. f ()) 0.0 !fs))
          | Histogram h ->
              (* Prometheus buckets are cumulative over 'le' upper bounds and
                 must end with +Inf; empty interior buckets are elided (any
                 subset of the cumulative series is valid exposition). *)
              head name p "histogram";
              let cumulative = ref 0 in
              List.iter
                (fun (_, upper, n) ->
                  cumulative := !cumulative + n;
                  if n > 0 && upper <> Float.infinity then
                    line "%s_bucket{le=\"%s\"} %d" p
                      (prometheus_escape ~quote:true (prometheus_float upper))
                      !cumulative)
                (histogram_buckets h);
              line "%s_bucket{le=\"+Inf\"} %d" p h.observations;
              line "%s_sum %s" p (prometheus_float h.sum);
              line "%s_count %d" p h.observations))
    (names t);
  Buffer.contents buf
