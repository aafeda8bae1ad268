(* Fixed-cadence flight recorder over a Metrics registry.  Rows live in a
   circular buffer; columns are discovered as metrics appear (a row only
   stores the columns that existed when it was taken — reads pad with 0).
   Histograms keep the previous snapshot's bucket counts around so the
   recorded p99 is over the *interval*, not the lifetime distribution. *)

type row = { at : float; values : float array }

type t = {
  metrics : Metrics.t;
  cap : int; (* 0 = disabled *)
  cad : float;
  host : string;
  cols : (string, int) Hashtbl.t; (* name -> column *)
  mutable col_names : string array; (* column -> name, grows *)
  mutable ncols : int;
  ring : row option array;
  mutable taken : int;
  mutable next_at : float; (* nan until the first tick anchors the grid *)
  prev_buckets : (string, int array) Hashtbl.t; (* histogram interval state *)
}

let none =
  {
    metrics = Metrics.create ~scope:"timeseries.none" ();
    cap = 0;
    cad = 1.0;
    host = "";
    cols = Hashtbl.create 1;
    col_names = [||];
    ncols = 0;
    ring = [||];
    taken = 0;
    next_at = nan;
    prev_buckets = Hashtbl.create 1;
  }

let create ?(capacity = 1024) ?(cadence = 1.0) ?(host = "") ~metrics () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  if not (cadence > 0.0) then invalid_arg "Timeseries.create: cadence must be positive";
  {
    metrics;
    cap = capacity;
    cad = cadence;
    host;
    cols = Hashtbl.create 64;
    col_names = Array.make 64 "";
    ncols = 0;
    ring = Array.make capacity None;
    taken = 0;
    next_at = nan;
    prev_buckets = Hashtbl.create 16;
  }

let enabled t = t.cap > 0
let cadence t = t.cad
let taken t = t.taken
let kept t = min t.taken t.cap

let col t name =
  match Hashtbl.find_opt t.cols name with
  | Some c -> c
  | None ->
      let c = t.ncols in
      if c = Array.length t.col_names then begin
        let bigger = Array.make (2 * max 1 c) "" in
        Array.blit t.col_names 0 bigger 0 c;
        t.col_names <- bigger
      end;
      t.col_names.(c) <- name;
      t.ncols <- c + 1;
      Hashtbl.replace t.cols name c;
      c

(* Nearest-rank p99 of the interval histogram: walk the per-bucket deltas
   since the previous snapshot to the 0.99 rank and report that bucket's
   finite edge (overflow bucket reports its lower bound). *)
let interval_p99 t name buckets =
  let n = List.length buckets in
  let cur = Array.make n 0 in
  List.iteri (fun i (_, _, c) -> cur.(i) <- c) buckets;
  let prev =
    match Hashtbl.find_opt t.prev_buckets name with
    | Some p when Array.length p = n -> p
    | _ -> Array.make n 0
  in
  let deltas = Array.mapi (fun i c -> c - prev.(i)) cur in
  Hashtbl.replace t.prev_buckets name cur;
  let total = Array.fold_left ( + ) 0 deltas in
  if total <= 0 then 0.0
  else begin
    let rank = int_of_float (ceil (0.99 *. float_of_int total)) in
    let rank = max 1 (min total rank) in
    let acc = ref 0 and result = ref 0.0 and found = ref false in
    List.iteri
      (fun i (lower, upper, _) ->
        if not !found then begin
          acc := !acc + deltas.(i);
          if !acc >= rank then begin
            found := true;
            result := (if upper < infinity then upper else max lower 0.0)
          end
        end)
      buckets;
    !result
  end

let snapshot t ~at =
  let snap = Metrics.snapshot t.metrics in
  let cells = ref [] in
  List.iter
    (fun (name, v) ->
      match (v : Metrics.value) with
      | Int i -> cells := (col t name, float_of_int i) :: !cells
      | Hist { count; sum; buckets } ->
          cells := (col t (name ^ ".count"), float_of_int count) :: !cells;
          cells := (col t (name ^ ".sum"), sum) :: !cells;
          cells := (col t (name ^ ".p99"), interval_p99 t name buckets) :: !cells)
    snap;
  let values = Array.make t.ncols 0.0 in
  List.iter (fun (c, v) -> values.(c) <- v) !cells;
  t.ring.(t.taken mod t.cap) <- Some { at; values };
  t.taken <- t.taken + 1

let tick t ~now =
  if t.cap > 0 then
    if Float.is_nan t.next_at then begin
      t.next_at <- now +. t.cad;
      snapshot t ~at:now
    end
    else if now >= t.next_at then begin
      while t.next_at <= now do
        t.next_at <- t.next_at +. t.cad
      done;
      snapshot t ~at:now
    end

let force t ~now = if t.cap > 0 then snapshot t ~at:now

let names t =
  List.sort compare (Array.to_list (Array.sub t.col_names 0 t.ncols))

let rows t =
  let k = kept t in
  Array.init k (fun i ->
      match t.ring.((t.taken - k + i) mod t.cap) with
      | Some r -> r
      | None -> { at = 0.0; values = [||] })

let series t name =
  match Hashtbl.find_opt t.cols name with
  | None -> [||]
  | Some c ->
      Array.map
        (fun r ->
          (r.at, if Array.length r.values > c then r.values.(c) else 0.0))
        (rows t)

let nth_last_row t i =
  let k = kept t in
  if i >= k then None else t.ring.((t.taken - 1 - i) mod t.cap)

let last2 t name =
  match Hashtbl.find_opt t.cols name with
  | None -> (0.0, 0.0)
  | Some c ->
      let read i =
        match nth_last_row t i with
        | Some r when Array.length r.values > c -> r.values.(c)
        | _ -> 0.0
      in
      (read 1, read 0)

let jnum v =
  if Float.is_integer v && Float.abs v < 4e15 then Json.Int (int_of_float v)
  else Json.Float v

let to_json t =
  let open Json in
  let rows = rows t in
  let ncols = t.ncols in
  let value r c = if Array.length r.values > c then r.values.(c) else 0.0 in
  let base, deltas =
    if Array.length rows = 0 then (List [], List [])
    else begin
      let base = List.init ncols (fun c -> jnum (value rows.(0) c)) in
      let deltas =
        Array.to_list
          (Array.init
             (Array.length rows - 1)
             (fun i ->
               List
                 (List.init ncols (fun c ->
                      jnum (value rows.(i + 1) c -. value rows.(i) c)))))
      in
      (List base, List deltas)
    end
  in
  Obj
    [
      ("schema", String "fbsr-timeseries/1");
      ("host", String t.host);
      ("cadence", Float t.cad);
      ("taken", Int t.taken);
      ("kept", Int (Array.length rows));
      ( "names",
        List
          (List.init ncols (fun c -> String t.col_names.(c))) );
      ("times", List (Array.to_list (Array.map (fun r -> Float r.at) rows)));
      ("base", base);
      ("deltas", deltas);
    ]

let dashboard ?(width = 64) ?(height = 10) ppf t ~names =
  List.iter
    (fun name ->
      let s = series t name in
      if Array.length s > 0 then begin
        Format.pp_print_cut ppf ();
        Chart.timeseries ~width ~height ppf ~x_label:"tick" ~y_label:name
          (Array.map snd s)
      end)
    names
