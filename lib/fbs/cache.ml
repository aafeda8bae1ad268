(* Soft-state key caches (paper, Section 5.3 "Key Caching").

   A generic set-associative cache with:
   - pluggable randomising hash (CRC-32 by default — the paper's
     recommendation, because cache inputs such as local addresses and
     sequential sfl values are highly correlated);
   - LRU replacement within a set;
   - miss classification into the three C's (compulsory/cold, capacity,
     conflict), which the paper uses to reason about cache sizing.

   Classification follows the standard methodology: a miss on a key never
   inserted is *cold*; a miss on a key that a fully-associative LRU cache
   of the same total capacity would still hold is *conflict*; otherwise it
   is *capacity*.  The shadow fully-associative cache is maintained
   alongside, as an index-linked list with O(1) touch.  "Never inserted"
   is answered by a set of 60-bit key fingerprints in an open-addressing
   [Bytes] table: no key object is retained, so each key ever inserted
   costs one 8-byte slot at load at most 1/2, which the GC does not scan.
   Marking at insert rather than at the first miss keeps a key that
   missed but was never cached (a refused datagram's, or one whose fetch
   is still pending) cold, and keeps such keys out of the set.

   The cache is soft state by construction: any entry may be dropped at any
   time and the protocol merely recomputes — correctness never depends on
   cache contents. *)

type ('k, 'v) slot = {
  key : 'k;
  mutable value : 'v;
  mutable last_used : int;
  inserted : int; (* tick at insertion, for FIFO replacement *)
}

(* Replacement policy within a set — the paper's Section 5.3 lists "a
   better replacement policy" among the levers against conflict misses. *)
type replacement = Lru | Fifo | Random of Fbsr_util.Rng.t

type stats = {
  mutable hits : int;
  mutable misses_cold : int;
  mutable misses_capacity : int;
  mutable misses_conflict : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type ('k, 'v) t = {
  sets : int;
  assoc : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  replacement : replacement;
  slots : ('k, 'v) slot option array; (* sets * assoc *)
  mutable tick : int;
  stats : stats;
  (* Shadow state for miss classification. *)
  classify : bool;
  mutable seen : Bytes.t; (* fingerprint set: 8-byte slots, 0 = empty *)
  mutable seen_count : int;
  shadow : ('k, int) Hashtbl.t; (* key -> its node in the shadow LRU list *)
  (* Nodes 1..shadow_used, at most capacity; node 0 is the sentinel, so
     next.(0) is the MRU and prev.(0) the LRU.  The arrays double up to
     capacity + 1 as nodes are taken, so a cache that only ever sees a few
     keys pays for a few nodes (the key array starts empty, for want of a
     key to fill it). *)
  mutable shadow_keys : 'k array;
  mutable shadow_prev : int array;
  mutable shadow_next : int array;
  mutable shadow_used : int;
  name : string; (* observability label, e.g. "tfkc" *)
}

let new_stats () =
  {
    hits = 0;
    misses_cold = 0;
    misses_capacity = 0;
    misses_conflict = 0;
    evictions = 0;
    invalidations = 0;
  }

let create ?(assoc = 1) ?(classify = true) ?(replacement = Lru) ?(name = "cache")
    ~sets ~hash ~equal () =
  if sets <= 0 || assoc <= 0 then invalid_arg "Cache.create: bad geometry";
  {
    sets;
    assoc;
    hash;
    equal;
    replacement;
    slots = Array.make (sets * assoc) None;
    tick = 0;
    stats = new_stats ();
    classify;
    seen = Bytes.make (if classify then 8 * 8 else 0) '\000';
    seen_count = 0;
    shadow = Hashtbl.create 16;
    shadow_keys = [||];
    shadow_prev = [| 0 |];
    shadow_next = [| 0 |];
    shadow_used = 0;
    name;
  }

let capacity t = t.sets * t.assoc
let stats t = t.stats
let name t = t.name

(* Expose the statistics record through the metrics registry, under the
   registry's current prefix (callers scope it, e.g. "fbs.cache.tfkc").
   Pull-probes: the record stays the single source of truth and the hot
   path is untouched. *)
let register_metrics t m =
  let open Fbsr_util.Metrics in
  let s = t.stats in
  register_probe m "hits" (fun () -> s.hits);
  register_probe m "misses.cold" (fun () -> s.misses_cold);
  register_probe m "misses.capacity" (fun () -> s.misses_capacity);
  register_probe m "misses.conflict" (fun () -> s.misses_conflict);
  register_probe m "misses.total" (fun () ->
      s.misses_cold + s.misses_capacity + s.misses_conflict);
  register_probe m "evictions" (fun () -> s.evictions);
  register_probe m "invalidations" (fun () -> s.invalidations)

let total_misses s = s.misses_cold + s.misses_capacity + s.misses_conflict
let accesses s = s.hits + total_misses s

let set_base t key = t.hash key mod t.sets * t.assoc

(* Shadow fully-associative LRU of the same capacity: a doubly linked
   list over node indices, so a touch is O(1) (amortised over the
   arrays' doubling) and, when the key is already there (every hit),
   allocates nothing.  The tail is the node touched least recently, the
   same victim as a minimum-tick scan. *)
let shadow_unlink t i =
  let p = t.shadow_prev.(i) and n = t.shadow_next.(i) in
  t.shadow_next.(p) <- n;
  t.shadow_prev.(n) <- p

let shadow_push_front t i =
  let head = t.shadow_next.(0) in
  t.shadow_prev.(i) <- 0;
  t.shadow_next.(i) <- head;
  t.shadow_prev.(head) <- i;
  t.shadow_next.(0) <- i

let shadow_new_node t key =
  let i = t.shadow_used + 1 in
  if i = Array.length t.shadow_prev then begin
    let n = min (capacity t + 1) (2 * i) in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.shadow_keys <- grow t.shadow_keys key;
    t.shadow_prev <- grow t.shadow_prev 0;
    t.shadow_next <- grow t.shadow_next 0
  end;
  t.shadow_used <- i;
  i

let shadow_touch t key =
  if t.classify then
    match Hashtbl.find t.shadow key with
    | i ->
        shadow_unlink t i;
        shadow_push_front t i
    | exception Not_found ->
        let i =
          if t.shadow_used < capacity t then shadow_new_node t key
          else begin
            let lru = t.shadow_prev.(0) in
            shadow_unlink t lru;
            Hashtbl.remove t.shadow t.shadow_keys.(lru);
            lru
          end
        in
        t.shadow_keys.(i) <- key;
        Hashtbl.add t.shadow key i;
        shadow_push_front t i

(* The fingerprint set.  A fingerprint is 60 bits from two seeded
   polymorphic hashes (30 bits each), independent of the caller's [hash]
   (which may be weak or even constant), and never 0, the empty-slot
   marker.  Slots are read and written as native-endian int64, which the
   compiler keeps unboxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let slot table i = Int64.to_int (get64 table (8 * i))
let set_slot table i fp = set64 table (8 * i) (Int64.of_int fp)

let fingerprint key =
  let fp = (Hashtbl.seeded_hash 0x5eed1 key lsl 30) lor Hashtbl.seeded_hash 0x5eed2 key in
  if fp = 0 then 1 else fp

(* Linear probing from [fp]'s low bits: the slot holding [fp], or else the
   empty slot where it belongs. *)
let rec probe table mask fp i =
  let v = slot table i in
  if v = 0 || v = fp then i else probe table mask fp ((i + 1) land mask)

let seen_slot table fp =
  let mask = (Bytes.length table / 8) - 1 in
  probe table mask fp (fp land mask)

(* Double the table by rehashing the stored fingerprints themselves. *)
let seen_grow t =
  let old = t.seen in
  let table = Bytes.make (2 * Bytes.length old) '\000' in
  for i = 0 to (Bytes.length old / 8) - 1 do
    let fp = slot old i in
    if fp <> 0 then set_slot table (seen_slot table fp) fp
  done;
  t.seen <- table

(* Whether [key] was ever inserted. *)
let is_seen t key =
  let fp = fingerprint key in
  slot t.seen (seen_slot t.seen fp) = fp

let mark_seen t key =
  let fp = fingerprint key in
  let i = seen_slot t.seen fp in
  if slot t.seen i <> fp then begin
    set_slot t.seen i fp;
    t.seen_count <- t.seen_count + 1;
    if 2 * t.seen_count > Bytes.length t.seen / 8 then seen_grow t
  end

let classify_miss t key =
  if not t.classify then t.stats.misses_capacity <- t.stats.misses_capacity + 1
  else if not (is_seen t key) then t.stats.misses_cold <- t.stats.misses_cold + 1
  else if Hashtbl.mem t.shadow key then
    t.stats.misses_conflict <- t.stats.misses_conflict + 1
  else t.stats.misses_capacity <- t.stats.misses_capacity + 1

let find t key =
  t.tick <- t.tick + 1;
  let base = set_base t key in
  let result = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key ->
        slot.last_used <- t.tick;
        result := Some slot.value
    | Some _ | None -> ()
  done;
  (match !result with
  | Some _ -> t.stats.hits <- t.stats.hits + 1
  | None -> classify_miss t key);
  shadow_touch t key;
  !result

(* Probe without affecting statistics or LRU state. *)
let peek t key =
  let base = set_base t key in
  let result = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key -> result := Some slot.value
    | Some _ | None -> ()
  done;
  !result

let victim_index t base =
  (* Pick the way to evict according to the replacement policy. *)
  match t.replacement with
  | Random rng -> base + Fbsr_util.Rng.int rng t.assoc
  | Lru | Fifo ->
      let metric slot =
        match t.replacement with Fifo -> slot.inserted | _ -> slot.last_used
      in
      let best = ref base in
      for way = 1 to t.assoc - 1 do
        match (t.slots.(base + way), t.slots.(!best)) with
        | Some s, Some b when metric s < metric b -> best := base + way
        | _ -> ()
      done;
      !best

let insert t key value =
  t.tick <- t.tick + 1;
  let base = set_base t key in
  (* Reuse an existing slot for the key, else an empty way, else evict. *)
  let existing = ref None and empty = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key -> existing := Some (base + way)
    | Some _ -> ()
    | None -> if !empty = None then empty := Some (base + way)
  done;
  let idx =
    match (!existing, !empty) with
    | Some i, _ -> i
    | None, Some i -> i
    | None, None ->
        t.stats.evictions <- t.stats.evictions + 1;
        victim_index t base
  in
  t.slots.(idx) <- Some { key; value; last_used = t.tick; inserted = t.tick };
  if t.classify then mark_seen t key;
  shadow_touch t key

let invalidate t key =
  let base = set_base t key in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key ->
        t.slots.(base + way) <- None;
        t.stats.invalidations <- t.stats.invalidations + 1
    | Some _ | None -> ()
  done

(* The fingerprint set survives: it is what tells a recomputation after
   soft-state loss from a first contact. *)
let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  Hashtbl.reset t.shadow;
  t.shadow_keys <- [||];
  t.shadow_prev <- [| 0 |];
  t.shadow_next <- [| 0 |];
  t.shadow_used <- 0

let fold t f acc =
  Array.fold_left
    (fun acc -> function Some slot -> f slot.key slot.value acc | None -> acc)
    acc t.slots

let occupancy t =
  Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 t.slots
