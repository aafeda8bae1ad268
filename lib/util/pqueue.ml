(* Binary min-heap priority queue: the discrete-event engine's event
   queue and [Pending]'s deadlines.  Ties on priority break by insertion
   order, which keeps event execution and expiry deterministic —
   essential for reproducible experiments. *)

type 'a t = {
  mutable heap : (float * int * 'a) array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = Array.make 16 (0.0, 0, Obj.magic 0); size = 0; next_seq = 0 }

let length t = t.size

let less (p1, s1, _) (p2, s2, _) = p1 < p2 || (p1 = p2 && s1 < s2)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t priority v =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) t.heap.(0) in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- (priority, t.next_seq, v);
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let priority, _, v = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some (priority, v)
  end

let peek t =
  if t.size = 0 then None
  else begin
    let priority, _, v = t.heap.(0) in
    Some (priority, v)
  end
