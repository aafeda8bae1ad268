(* Space-Saving candidates over a linear count-min estimator.  See the .mli
   for the canonical-merge design; the key constraint implemented here is
   that the hot path (observe on an already-tracked key) allocates nothing:
   int-keyed hashtable lookup, int-array increments, native-int hashing. *)

type t = {
  slots : int; (* 0 = disabled *)
  cm_depth : int;
  cm_width : int; (* power of two *)
  seeds : int array; (* one per count-min row *)
  cm : int array; (* cm_depth * cm_width, row-major *)
  keys : int64 array; (* Space-Saving slot -> key *)
  counts : int array; (* Space-Saving slot -> count *)
  index : (int, int) Hashtbl.t; (* truncated key -> slot *)
  mutable used : int;
  mutable total : int;
}

let none =
  {
    slots = 0;
    cm_depth = 0;
    cm_width = 0;
    seeds = [||];
    cm = [||];
    keys = [||];
    counts = [||];
    index = Hashtbl.create 1;
    used = 0;
    total = 0;
  }

let enabled t = t.slots > 0

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Fixed seed schedule: every sketch of the same dimensions hashes keys the
   same way, which is what makes cross-shard count-min merges exact. *)
let row_seed row = 0x2b992ddf lxor (row * 0x9e3779b9) lxor (row lsl 17)

(* Count-min rows: an estimate is over its bound with probability
   exp(-4) < 2 %. *)
let cm_depth = 4

let create ?(slots = 512) ?(cm_width = 8192) () =
  if slots <= 0 || cm_width <= 0 then
    invalid_arg "Sketch.create: dimensions must be positive";
  let cm_width = round_pow2 cm_width in
  {
    slots;
    cm_depth;
    cm_width;
    seeds = Array.init cm_depth row_seed;
    cm = Array.make (cm_depth * cm_width) 0;
    keys = Array.make slots 0L;
    counts = Array.make slots 0;
    index = Hashtbl.create (2 * slots);
    used = 0;
    total = 0;
  }

(* xorshift-multiply mix on the native int; constants fit in 62 bits. *)
let mix seed k =
  let h = k lxor seed in
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B03738712FAD5C9 in
  let h = h lxor (h lsr 32) in
  h

let cm_update t ik w =
  let mask = t.cm_width - 1 in
  for row = 0 to t.cm_depth - 1 do
    let idx = mix (Array.unsafe_get t.seeds row) ik land mask in
    let cell = (row * t.cm_width) + idx in
    Array.unsafe_set t.cm cell (Array.unsafe_get t.cm cell + w)
  done

let cm_estimate t ik =
  let mask = t.cm_width - 1 in
  let est = ref max_int in
  for row = 0 to t.cm_depth - 1 do
    let idx = mix (Array.unsafe_get t.seeds row) ik land mask in
    let v = Array.unsafe_get t.cm ((row * t.cm_width) + idx) in
    if v < !est then est := v
  done;
  if !est = max_int then 0 else !est

let min_slot t =
  let best = ref 0 in
  let bestc = ref t.counts.(0) in
  for s = 1 to t.used - 1 do
    let c = Array.unsafe_get t.counts s in
    if c < !bestc then (
      bestc := c;
      best := s)
  done;
  !best

let insert_slot t key ik count =
  if t.used < t.slots then (
    let s = t.used in
    t.used <- t.used + 1;
    t.keys.(s) <- key;
    t.counts.(s) <- count;
    Hashtbl.replace t.index ik s)
  else
    let s = min_slot t in
    Hashtbl.remove t.index (Int64.to_int t.keys.(s));
    (* Space-Saving: the newcomer inherits the evicted minimum, bounding the
       overestimate by total/slots.  The counter only nominates candidates;
       reported estimates come from count-min. *)
    t.keys.(s) <- key;
    t.counts.(s) <- t.counts.(s) + count;
    Hashtbl.replace t.index ik s

let observe t key w =
  if t.slots > 0 then begin
    let ik = Int64.to_int key in
    t.total <- t.total + w;
    cm_update t ik w;
    match Hashtbl.find t.index ik with
    | s -> Array.unsafe_set t.counts s (Array.unsafe_get t.counts s + w)
    | exception Not_found -> insert_slot t key ik w
  end

let total t = t.total
let distinct_tracked t = t.used
let estimate t key = if t.slots = 0 then 0 else cm_estimate t (Int64.to_int key)
let ss_bound t = if t.slots = 0 then 0 else t.total / t.slots

let top t k =
  if t.slots = 0 || k <= 0 then []
  else begin
    let cand =
      Array.init t.used (fun s ->
          let key = t.keys.(s) in
          (key, cm_estimate t (Int64.to_int key)))
    in
    Array.sort
      (fun (ka, ea) (kb, eb) ->
        if ea <> eb then compare eb ea else compare ka kb)
      cand;
    let n = min k (Array.length cand) in
    Array.to_list (Array.sub cand 0 n)
  end

let merge ts =
  match ts with
  | [] -> invalid_arg "Sketch.merge: empty list"
  | hd :: _ ->
      List.iter
        (fun s ->
          if
            s.slots <> hd.slots || s.cm_depth <> hd.cm_depth
            || s.cm_width <> hd.cm_width
          then invalid_arg "Sketch.merge: dimension mismatch")
        ts;
      let m = create ~slots:hd.slots ~cm_width:hd.cm_width () in
      List.iter
        (fun s ->
          m.total <- m.total + s.total;
          for i = 0 to Array.length s.cm - 1 do
            m.cm.(i) <- m.cm.(i) + s.cm.(i)
          done)
        ts;
      (* Recombine candidate slots: keep the largest Space-Saving counters
         across all inputs (keys are disjoint under sfl sharding, so counts
         never need summing across inputs of the same key — but sum anyway
         to stay correct if they are not). *)
      let acc = Hashtbl.create (4 * hd.slots) in
      List.iter
        (fun s ->
          for i = 0 to s.used - 1 do
            let key = s.keys.(i) in
            let prev = try Hashtbl.find acc key with Not_found -> 0 in
            Hashtbl.replace acc key (prev + s.counts.(i))
          done)
        ts;
      let cand =
        Hashtbl.fold (fun key c l -> (key, c) :: l) acc []
        |> List.sort (fun (ka, ca) (kb, cb) ->
               if ca <> cb then compare cb ca else compare ka kb)
      in
      List.iteri
        (fun i (key, c) ->
          if i < m.slots then begin
            m.keys.(i) <- key;
            m.counts.(i) <- c;
            m.used <- m.used + 1;
            Hashtbl.replace m.index (Int64.to_int key) i
          end)
        cand;
      m

let cm_checksum t =
  let h = ref (mix 0x5ee7c4 (t.slots lxor (t.cm_depth lsl 20) lxor (t.cm_width lsl 8))) in
  Array.iter (fun c -> h := mix !h (c + 0x9e37)) t.cm;
  h := mix !h t.total;
  !h land max_int

let to_json t =
  let open Json in
  Obj
    [
      ("schema", String "fbsr-sketch/1");
      ("slots", Int t.slots);
      ("cm_depth", Int t.cm_depth);
      ("cm_width", Int t.cm_width);
      ("total", Int t.total);
      ("cm_checksum", Int (cm_checksum t));
      ("ss_bound", Int (ss_bound t));
      ( "top",
        List
          (List.map
             (fun (key, est) ->
               Obj [ ("key", String (Printf.sprintf "%016Lx" key)); ("est", Int est) ])
             (top t 32)) );
    ]
