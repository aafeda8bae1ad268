(* The index maps a key to its node, and the nodes form a list from
   oldest to newest, so removal anywhere and eviction of the oldest are
   O(1).  The deadline heap reaches a node only through its [due] cell,
   which is cleared when the node leaves: a heap item whose entry has
   left holds neither key nor value, and [expire] skips it.  Once such
   items are most of the heap, it is rebuilt without them, so it stays
   within about twice the entries that have a deadline. *)

type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      value : 'v;
      mutable older : ('k, 'v) node;
      mutable newer : ('k, 'v) node;
      due : ('k, 'v) node ref; (* shared, and always [Nil], without a deadline *)
    }

type ('k, 'v) t = {
  index : ('k, ('k, 'v) node) Hashtbl.t;
  mutable oldest : ('k, 'v) node;
  mutable newest : ('k, 'v) node;
  mutable deadlines : ('k, 'v) node ref Pqueue.t;
  mutable dead : int; (* heap items whose entry has left *)
  undue : ('k, 'v) node ref;
}

let create () =
  {
    index = Hashtbl.create 16;
    oldest = Nil;
    newest = Nil;
    deadlines = Pqueue.create ();
    dead = 0;
    undue = ref Nil;
  }

let length t = Hashtbl.length t.index
let mem t k = Hashtbl.mem t.index k

(* Drop the heap items whose entry has left.  Items move in pop order,
   so equal deadlines keep their order. *)
let rebuild t =
  let live = Pqueue.create () in
  let rec move () =
    match Pqueue.pop t.deadlines with
    | Some (d, due) ->
        if !due != Nil then Pqueue.push live d due;
        move ()
    | None -> ()
  in
  move ();
  t.deadlines <- live;
  t.dead <- 0

let unlink t = function
  | Nil -> None
  | Node n ->
      Hashtbl.remove t.index n.key;
      (match n.older with Nil -> t.oldest <- n.newer | Node o -> o.newer <- n.newer);
      (match n.newer with Nil -> t.newest <- n.older | Node w -> w.older <- n.older);
      if n.due != t.undue then begin
        n.due := Nil;
        t.dead <- t.dead + 1;
        if t.dead > 64 && 2 * t.dead > Pqueue.length t.deadlines then rebuild t
      end;
      Some n.value

let find t k =
  match Hashtbl.find t.index k with
  | Node n -> Some n.value
  | Nil | (exception Not_found) -> None

let remove t k =
  match Hashtbl.find t.index k with node -> unlink t node | exception Not_found -> None

let pop_oldest t = unlink t t.oldest

let add ?deadline t k v =
  ignore (remove t k);
  let due = match deadline with None -> t.undue | Some _ -> ref Nil in
  let node = Node { key = k; value = v; older = t.newest; newer = Nil; due } in
  (match t.newest with Nil -> t.oldest <- node | Node w -> w.newer <- node);
  t.newest <- node;
  Hashtbl.add t.index k node;
  match deadline with
  | None -> ()
  | Some d ->
      due := node;
      Pqueue.push t.deadlines d due

let rec expire t ~now =
  match Pqueue.peek t.deadlines with
  | Some (d, due) when d < now ->
      ignore (Pqueue.pop t.deadlines);
      t.dead <- t.dead - 1;
      ignore (unlink t !due);
      expire t ~now
  | Some _ | None -> ()
