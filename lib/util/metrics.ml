(* Unified metrics registry.

   Every subsystem in the repo keeps measurement state — engine drop
   counters, cache three-C statistics, MKD retransmission counts, link
   fault tallies — and before this module each was a module-private record
   with its own ad-hoc accessors.  The registry gives them one namespace
   (dotted names: "fbs.engine.drops.mac", "netsim.link.corrupted"), one
   read path, and one serializer, without touching the hot paths.

   Two kinds of metric coexist:

   - *probes* — closures registered over existing mutable records with
     [register_probe].  The record keeps being updated
     exactly as before (zero behavior change); the registry evaluates the
     closure only when read.  Several probes may share one name, in which
     case reads return their SUM — registering every host's engine under
     the same name yields site-wide totals for free, while per-host views
     live under a [sub]-scoped prefix.

   - log-bucket *histograms* allocated by [histogram].  An update is a
     bucket scan and three stores (no allocation, no hashing: the handle
     is the cell), so it is safe on per-datagram paths.

   A registry is cheap (one hashtable).  [sub] returns a view onto the
   same table with a longer dotted prefix, so one registry can hold
   "host.10.0.0.1.fbs.engine.sends" next to the aggregated
   "fbs.engine.sends". *)

(* Log-scale histogram: bucket [i] counts observations v with
   bounds.(i-1) < v <= bounds.(i); an implicit overflow bucket counts
   v > bounds.(last).  Bounds are fixed at creation (lo * base^i), so
   [observe] is a branch-and-increment scan — no allocation. *)
type histogram = {
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable observations : int;
  mutable sum : float;
}

type cell =
  | Histogram of histogram
  | Probe of (unit -> int) list ref

type t = { prefix : string; cells : (string, cell) Hashtbl.t }

let create ?(scope = "") () =
  { prefix = (if scope = "" then "" else scope ^ "."); cells = Hashtbl.create 64 }

let sub t scope =
  if scope = "" then t else { t with prefix = t.prefix ^ scope ^ "." }

let kind_name = function
  | Histogram _ -> "histogram"
  | Probe _ -> "probe"

let clash full cell want =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" full
       (kind_name cell) want)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let mem t name = Hashtbl.mem t.cells (t.prefix ^ name)

let read_int = function
  | Histogram h -> h.observations
  | Probe fs -> List.fold_left (fun acc f -> acc + f ()) 0 !fs

let get t name =
  match Hashtbl.find_opt t.cells (t.prefix ^ name) with
  | Some cell -> read_int cell
  | None -> invalid_arg (Printf.sprintf "Metrics.get: unknown metric %S" (t.prefix ^ name))

let in_scope t full = String.length t.prefix = 0 || String.starts_with ~prefix:t.prefix full

let names t =
  Hashtbl.fold (fun k _ acc -> if in_scope t k then k :: acc else acc) t.cells []
  |> List.sort String.compare

type value =
  | Int of int
  | Hist of { count : int; sum : float; buckets : (float * float * int) list }

let snapshot t =
  List.map
    (fun name ->
      let v =
        match Hashtbl.find_opt t.cells name with
        | Some (Histogram h) ->
            Hist { count = h.observations; sum = h.sum; buckets = histogram_buckets h }
        | Some (Probe _ as cell) -> Int (read_int cell)
        | None -> assert false
      in
      (name, v))
    (names t)

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
    (* # HELP precedes # TYPE and names the original dotted metric (which
       the name folding may have obscured). *)
    line "# HELP %s %s" p (prometheus_escape (Printf.sprintf "fbsr %s %s" kind name));
    line "# TYPE %s %s" p kind
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.cells name with
      | None -> ()
      | Some cell -> (
          let p = prometheus_name name in
          match cell with
          | Probe fs ->
              (* Probes read monotone subsystem tallies; expose as counters. *)
              head name p "counter";
              line "%s %d" p (List.fold_left (fun acc f -> acc + f ()) 0 !fs)
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
