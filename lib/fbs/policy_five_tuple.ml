(* The paper's example security flow policy (Section 7.1, Figure 7):

     "a secure flow is defined as a sequence of datagrams of the same
      transport layer protocol going from a port on a host to another port
      on another host such that the datagrams do not arrive more than
      THRESHOLD apart"

   Mechanics reproduced exactly from Figure 7:
   - the flow state table (FST) is a direct-mapped array of FSTSIZE entries
     indexed by CRC-32 of the 5-tuple;
   - a hash collision evicts the resident flow and starts a new one —
     footnote 11: "a hash collision can prematurely terminate a flow.
     This does not affect security though";
   - an entry whose last packet is more than THRESHOLD old is invalid, so
     the next datagram on that 5-tuple starts a fresh flow (fresh sfl,
     hence fresh key);
   - the sweeper scans the table and invalidates idle entries.

   Two documented extensions beyond Figure 7 (the paper's Section 5.2
   "rekeying can be easily accomplished via the FAM by changing the sfl;
   rekeying decisions are made by policy modules"):
   [max_flow_bytes] and [max_flow_life] force a fresh sfl when a flow has
   encrypted too much data or lived too long under one key. *)

type entry = {
  mutable valid : bool;
  mutable protocol : int;
  mutable src : string; (* canonical principal names *)
  mutable src_port : int;
  mutable dst : string;
  mutable dst_port : int;
  mutable sfl : Sfl.t;
  mutable started : float;
  mutable last : float;
  mutable bytes : int;
}

type counters = {
  mutable collisions : int; (* flows evicted by a hash collision *)
  mutable expirations : int; (* flows expired by threshold / sweeper *)
  mutable rekeys : int; (* flows rotated by the rekeying extensions *)
}

type t = {
  table : entry array;
  threshold : float;
  alloc : Sfl.allocator;
  max_flow_bytes : int option;
  max_flow_life : float option;
  counters : counters;
}

let tuple_hash ~protocol ~src ~src_port ~dst ~dst_port =
  let open Fbsr_util.Crc32 in
  let h = update 0 src 0 (String.length src) in
  let h = update h dst 0 (String.length dst) in
  let h = update_int32 h ((protocol lsl 16) lor src_port) in
  update_int32 h dst_port

let fresh_entry () =
  {
    valid = false;
    protocol = 0;
    src = "";
    src_port = 0;
    dst = "";
    dst_port = 0;
    sfl = Sfl.of_int64 0L;
    started = 0.0;
    last = 0.0;
    bytes = 0;
  }

let make ?(fst_size = 256) ?(threshold = 600.0) ?max_flow_bytes ?max_flow_life ~alloc ()
    =
  if fst_size <= 0 then invalid_arg "Policy_five_tuple: fst_size must be positive";
  {
    table = Array.init fst_size (fun _ -> fresh_entry ());
    threshold;
    alloc;
    max_flow_bytes;
    max_flow_life;
    counters = { collisions = 0; expirations = 0; rekeys = 0 };
  }

let entry_matches e ~protocol ~src ~src_port ~dst ~dst_port =
  e.valid && e.protocol = protocol && e.src_port = src_port && e.dst_port = dst_port
  && String.equal e.src src && String.equal e.dst dst

let start_flow t e ~now ~protocol ~src ~src_port ~dst ~dst_port =
  let sfl = Sfl.fresh t.alloc in
  e.valid <- true;
  e.protocol <- protocol;
  e.src <- src;
  e.src_port <- src_port;
  e.dst <- dst;
  e.dst_port <- dst_port;
  e.sfl <- sfl;
  e.started <- now;
  e.last <- now;
  e.bytes <- 0;
  sfl

let needs_rekey t e ~now =
  (match t.max_flow_bytes with Some b -> e.bytes >= b | None -> false)
  || match t.max_flow_life with Some l -> now -. e.started >= l | None -> false

(* The mapper of Figure 7, with the implicit sweeping of Section 7.2: the
   idleness check happens inline, so a stale entry is replaced on access
   rather than waiting for the periodic sweeper. *)
let map t ~now (a : Fam.attrs) =
  let src = Principal.to_string a.Fam.src and dst = Principal.to_string a.Fam.dst in
  let protocol = a.Fam.protocol and src_port = a.Fam.src_port
  and dst_port = a.Fam.dst_port in
  let i = tuple_hash ~protocol ~src ~src_port ~dst ~dst_port mod Array.length t.table in
  let e = t.table.(i) in
  if entry_matches e ~protocol ~src ~src_port ~dst ~dst_port then begin
    if now -. e.last > t.threshold then begin
      (* Same conversation tuple, but idle past THRESHOLD: new flow. *)
      t.counters.expirations <- t.counters.expirations + 1;
      let sfl = start_flow t e ~now ~protocol ~src ~src_port ~dst ~dst_port in
      e.bytes <- a.Fam.size;
      (sfl, Fam.Fresh)
    end
    else if needs_rekey t e ~now then begin
      t.counters.rekeys <- t.counters.rekeys + 1;
      let sfl = start_flow t e ~now ~protocol ~src ~src_port ~dst ~dst_port in
      e.bytes <- a.Fam.size;
      (sfl, Fam.Fresh)
    end
    else begin
      e.last <- now;
      e.bytes <- e.bytes + a.Fam.size;
      (e.sfl, Fam.Existing)
    end
  end
  else begin
    if e.valid then t.counters.collisions <- t.counters.collisions + 1;
    let sfl = start_flow t e ~now ~protocol ~src ~src_port ~dst ~dst_port in
    e.bytes <- a.Fam.size;
    (sfl, Fam.Fresh)
  end

(* The sweeper of Figure 7: scan and invalidate idle entries. *)
let sweep t ~now =
  let expired = ref 0 in
  Array.iter
    (fun e ->
      if e.valid && now -. e.last > t.threshold then begin
        e.valid <- false;
        incr expired
      end)
    t.table;
  t.counters.expirations <- t.counters.expirations + !expired;
  !expired

let active t ~now =
  Array.fold_left
    (fun n e -> if e.valid && now -. e.last <= t.threshold then n + 1 else n)
    0 t.table

let counters t = t.counters

(* The FAM policy record over a fresh table, and the table itself (for
   tests and the flow monitor example). *)
let policy_with_state ?fst_size ?threshold ?max_flow_bytes ?max_flow_life ~alloc () =
  let t = make ?fst_size ?threshold ?max_flow_bytes ?max_flow_life ~alloc () in
  ( {
      Fam.policy_name = "five-tuple";
      map = (fun ~now a -> map t ~now a);
      sweep = (fun ~now -> sweep t ~now);
      active = (fun ~now -> active t ~now);
    },
    t )

let policy ?fst_size ?threshold ?max_flow_bytes ?max_flow_life ~alloc () : Fam.policy =
  fst (policy_with_state ?fst_size ?threshold ?max_flow_bytes ?max_flow_life ~alloc ())
