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
   is *capacity*.  The classifier knows a key only by the caller's int
   fingerprint, computed once per [find] or [insert]: the shadow
   fully-associative cache is an index-linked list with O(1) touch, found
   through an open-addressing int table from fingerprint to node, and
   "never inserted" is answered by a set of fingerprints in a Robin Hood
   open-addressing [Bytes] table.  No key object is retained by either,
   so each key ever inserted costs one 8-byte slot at load between 7/16
   and 7/8, which the GC does not scan, and no lookup runs a polymorphic
   hash or equality.  Marking at insert rather than at the first miss
   keeps a key that missed but was never cached (a refused datagram's,
   or one whose fetch is still pending) cold, and keeps such keys out of
   the set.

   The cache is soft state by construction: any entry may be dropped at any
   time and the protocol merely recomputes — correctness never depends on
   cache contents. *)

(* One way of a set.  A full slot holds its value already wrapped, made
   once at insert, so a hit returns it without allocating. *)
type ('k, 'v) slot =
  | Empty
  | Full of {
      key : 'k;
      found : 'v option; (* [Some value] *)
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
  fingerprint : 'k -> int;
  equal : 'k -> 'k -> bool;
  replacement : replacement;
  slots : ('k, 'v) slot array; (* sets * assoc *)
  mutable tick : int;
  stats : stats;
  (* Shadow state for miss classification, all of it over fingerprints. *)
  classify : bool;
  mutable seen : Bytes.t; (* fingerprint set: 8-byte slots, 0 = empty *)
  mutable seen_count : int;
  (* Nodes 1..shadow_used, at most capacity; node 0 is the sentinel, so
     next.(0) is the MRU and prev.(0) the LRU.  The node arrays double up
     to capacity + 1 as nodes are taken, so a cache that only ever sees a
     few keys pays for a few nodes; [shadow_index] (fingerprint -> node,
     0 = empty) doubles with them and stays at least twice their length,
     so its load is at most 1/2. *)
  mutable shadow_index : int array;
  mutable shadow_fp : int array;
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
    ~sets ~hash ~fingerprint ~equal () =
  if sets <= 0 || assoc <= 0 then invalid_arg "Cache.create: bad geometry";
  {
    sets;
    assoc;
    hash;
    fingerprint;
    equal;
    replacement;
    slots = Array.make (sets * assoc) Empty;
    tick = 0;
    stats = new_stats ();
    classify;
    seen = Bytes.make (if classify then 8 * 8 else 0) '\000';
    seen_count = 0;
    shadow_index = [| 0 |];
    shadow_fp = [| 0 |];
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

(* The caller's fingerprint of [key]; 0 marks an empty slot in both
   tables, so it is read as 1. *)
let fingerprint t key =
  let fp = t.fingerprint key in
  if fp = 0 then 1 else fp

(* Where linear probing for [fp] starts in a table of [mask + 1] slots:
   one multiply and shift spread the fingerprint's high bits into the
   low ones, so a weak caller fingerprint (a small int) still scatters. *)
let home fp mask =
  let h = fp * 0x1e3779b97f4a7c15 in
  (h lxor (h lsr 32)) land mask

(* Shadow fully-associative LRU of the same capacity: a doubly linked
   list over node indices, so a touch is O(1) (amortised over the
   arrays' doubling) and, when the fingerprint is already there (every
   hit), allocates nothing.  The tail is the node touched least
   recently, the same victim as a minimum-tick scan. *)
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

(* Linear probing from [fp]'s home: the index slot holding [fp]'s node,
   or else the empty slot where it belongs. *)
let rec shadow_probe index fps mask fp i =
  let node = Array.unsafe_get index i in
  if node = 0 || fps.(node) = fp then i
  else shadow_probe index fps mask fp ((i + 1) land mask)

let shadow_slot t fp =
  let mask = Array.length t.shadow_index - 1 in
  shadow_probe t.shadow_index t.shadow_fp mask fp (home fp mask)

(* [fp]'s node, 0 when the shadow does not hold it. *)
let shadow_find t fp = t.shadow_index.(shadow_slot t fp)

(* Empty index slot [hole] by shifting back the entries of its probe run
   that may move into it (deletion without tombstones): the entry at [j]
   moves when the hole lies between its home and [j]. *)
let rec shadow_remove index fps mask hole j =
  let j = (j + 1) land mask in
  let node = index.(j) in
  if node = 0 then index.(hole) <- 0
  else if (j - home fps.(node) mask) land mask >= (j - hole) land mask then begin
    index.(hole) <- node;
    shadow_remove index fps mask j j
  end
  else shadow_remove index fps mask hole j

let shadow_new_node t =
  let i = t.shadow_used + 1 in
  if i = Array.length t.shadow_prev then begin
    let n = min (capacity t + 1) (2 * i) in
    let grow a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.shadow_fp <- grow t.shadow_fp;
    t.shadow_prev <- grow t.shadow_prev;
    t.shadow_next <- grow t.shadow_next;
    let size = ref 1 in
    while !size < 2 * n do
      size := 2 * !size
    done;
    t.shadow_index <- Array.make !size 0;
    for node = 1 to t.shadow_used do
      t.shadow_index.(shadow_slot t t.shadow_fp.(node)) <- node
    done
  end;
  t.shadow_used <- i;
  i

(* Move [fp]'s [node] (0: not held) to the front, taking a new node or
   recycling the LRU one for a fingerprint not held. *)
let shadow_touch t fp node =
  if node <> 0 then begin
    shadow_unlink t node;
    shadow_push_front t node
  end
  else begin
    let i =
      if t.shadow_used < capacity t then shadow_new_node t
      else begin
        let lru = t.shadow_prev.(0) in
        shadow_unlink t lru;
        let hole = shadow_slot t t.shadow_fp.(lru) in
        shadow_remove t.shadow_index t.shadow_fp (Array.length t.shadow_index - 1) hole hole;
        lru
      end
    in
    t.shadow_fp.(i) <- fp;
    t.shadow_index.(shadow_slot t fp) <- i;
    shadow_push_front t i
  end

(* The fingerprint set.  Slots are read and written as native-endian
   int64, which the compiler keeps unboxed.  Linear probing in Robin
   Hood order: an insert takes the slot of the first entry nearer its
   own home than the newcomer would be there, and that entry moves on.
   So a lookup stops at the first such entry, and the search for an
   absent fingerprint (every cold miss) ends early even at load 7/8.
   Nothing is ever deleted, so no entry is ever shifted back. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let slot table i = Int64.to_int (get64 table (8 * i))
let set_slot table i fp = set64 table (8 * i) (Int64.of_int fp)

(* How far slot [i] lies past [fp]'s home. *)
let distance fp mask i = (i - home fp mask) land mask

(* Whether [fp] is in the table: probe from its home while the slots
   hold entries at least as far from their own homes as [fp] is from
   its. *)
let rec seen_probe table mask fp i d =
  let v = slot table i in
  if v = fp then true
  else if v = 0 || distance v mask i < d then false
  else seen_probe table mask fp ((i + 1) land mask) (d + 1)

(* Add [fp], probing from slot [i] at distance [d] from its home, and
   say whether it was absent.  It takes the first empty slot, or the
   first slot whose entry is nearer its own home, and that entry, absent
   everywhere else, moves on in its place. *)
let rec seen_add table mask fp i d =
  let v = slot table i in
  if v = fp then false
  else if v = 0 then begin
    set_slot table i fp;
    true
  end
  else begin
    let dv = distance v mask i and next = (i + 1) land mask in
    if dv < d then begin
      set_slot table i fp;
      seen_add table mask v next (dv + 1)
    end
    else seen_add table mask fp next (d + 1)
  end

let seen_mask table = (Bytes.length table / 8) - 1

(* Double the table by adding the stored fingerprints themselves. *)
let seen_grow t =
  let old = t.seen in
  let table = Bytes.make (2 * Bytes.length old) '\000' in
  let mask = seen_mask table in
  for i = 0 to seen_mask old do
    let fp = slot old i in
    if fp <> 0 then ignore (seen_add table mask fp (home fp mask) 0)
  done;
  t.seen <- table

(* Whether a key with fingerprint [fp] was ever inserted. *)
let is_seen t fp =
  let mask = seen_mask t.seen in
  seen_probe t.seen mask fp (home fp mask) 0

(* The set doubles past load 7/8, so it stays between 7/16 and 7/8 full:
   9 to 18 bytes per fingerprint. *)
let mark_seen t fp =
  let mask = seen_mask t.seen in
  if seen_add t.seen mask fp (home fp mask) 0 then begin
    t.seen_count <- t.seen_count + 1;
    if 8 * t.seen_count > 7 * (mask + 1) then seen_grow t
  end

let find t key =
  t.tick <- t.tick + 1;
  let base = set_base t key in
  let result = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Full slot when t.equal slot.key key ->
        slot.last_used <- t.tick;
        result := slot.found
    | Full _ | Empty -> ()
  done;
  let s = t.stats in
  (if not t.classify then
     match !result with
     | Some _ -> s.hits <- s.hits + 1
     | None -> s.misses_capacity <- s.misses_capacity + 1
   else
     let fp = fingerprint t key in
     let node = shadow_find t fp in
     (match !result with
     | Some _ -> s.hits <- s.hits + 1
     | None ->
         if not (is_seen t fp) then s.misses_cold <- s.misses_cold + 1
         else if node <> 0 then s.misses_conflict <- s.misses_conflict + 1
         else s.misses_capacity <- s.misses_capacity + 1);
     shadow_touch t fp node);
  !result

(* Probe without affecting statistics or LRU state. *)
let peek t key =
  let base = set_base t key in
  let result = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Full slot when t.equal slot.key key -> result := slot.found
    | Full _ | Empty -> ()
  done;
  !result

let victim_index t base =
  (* Pick the way to evict according to the replacement policy. *)
  match t.replacement with
  | Random rng -> base + Fbsr_util.Rng.int rng t.assoc
  | Lru | Fifo ->
      let fifo = match t.replacement with Fifo -> true | Lru | Random _ -> false in
      let best = ref base in
      for way = 1 to t.assoc - 1 do
        match (t.slots.(base + way), t.slots.(!best)) with
        | Full s, Full b
          when if fifo then s.inserted < b.inserted else s.last_used < b.last_used ->
            best := base + way
        | _ -> ()
      done;
      !best

let insert t key value =
  t.tick <- t.tick + 1;
  let base = set_base t key in
  (* Reuse an existing slot for the key, else the first empty way, else
     evict (-1: none found yet). *)
  let existing = ref (-1) and empty = ref (-1) in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Full slot when t.equal slot.key key -> existing := base + way
    | Full _ -> ()
    | Empty -> if !empty < 0 then empty := base + way
  done;
  let idx =
    if !existing >= 0 then !existing
    else if !empty >= 0 then !empty
    else begin
      t.stats.evictions <- t.stats.evictions + 1;
      victim_index t base
    end
  in
  t.slots.(idx) <- Full { key; found = Some value; last_used = t.tick; inserted = t.tick };
  if t.classify then begin
    let fp = fingerprint t key in
    mark_seen t fp;
    shadow_touch t fp (shadow_find t fp)
  end

let invalidate t key =
  let base = set_base t key in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Full slot when t.equal slot.key key ->
        t.slots.(base + way) <- Empty;
        t.stats.invalidations <- t.stats.invalidations + 1
    | Full _ | Empty -> ()
  done

(* The fingerprint set survives: it is what tells a recomputation after
   soft-state loss from a first contact.  The shadow keeps its arrays
   and forgets its nodes. *)
let clear t =
  Array.fill t.slots 0 (Array.length t.slots) Empty;
  Array.fill t.shadow_index 0 (Array.length t.shadow_index) 0;
  t.shadow_prev.(0) <- 0;
  t.shadow_next.(0) <- 0;
  t.shadow_used <- 0

let fold t f acc =
  Array.fold_left
    (fun acc -> function
      | Full { key; found = Some value; _ } -> f key value acc
      | Full { found = None; _ } | Empty -> acc)
    acc t.slots

let occupancy t =
  Array.fold_left (fun n -> function Full _ -> n + 1 | Empty -> n) 0 t.slots
