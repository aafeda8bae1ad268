(* Tests for the core FBS protocol: sfl allocation, the security flow
   header, replay windows, the soft-state caches, zero-message keying, the
   FAM policies, and the full send/receive engine of Figures 4 and 6. *)

open Fbsr_fbs

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t
let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')

(* --- Sfl --- *)

let test_sfl_unique () =
  let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create 1) in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 10_000 do
    let s = Sfl.fresh alloc in
    if Hashtbl.mem seen s then Alcotest.fail "duplicate sfl";
    Hashtbl.replace seen s ()
  done;
  check Alcotest.int "allocated count" 10_000 (Sfl.allocated alloc)

let test_sfl_randomized_start () =
  let a = Sfl.allocator ~rng:(Fbsr_util.Rng.create 1) in
  let b = Sfl.allocator ~rng:(Fbsr_util.Rng.create 2) in
  check Alcotest.bool "different seeds, different starts" false
    (Sfl.equal (Sfl.fresh a) (Sfl.fresh b))

(* --- Suite --- *)

let test_suite_registry () =
  List.iter
    (fun s ->
      match Suite.of_id s.Suite.id with
      | Some s' -> check Alcotest.int "id roundtrip" s.Suite.id s'.Suite.id
      | None -> Alcotest.fail "suite not found by id")
    Suite.all;
  check (Alcotest.list Alcotest.int) "the paper's suite and NOP" [ 0; 255 ]
    (List.map (fun s -> s.Suite.id) Suite.all);
  check Alcotest.bool "unknown id" true (Suite.of_id 99 = None);
  check Alcotest.bool "nop flag" true (Suite.is_nop Suite.nop);
  check Alcotest.bool "paper suite not nop" false (Suite.is_nop Suite.paper_md5_des);
  check Alcotest.int "header size = 18 + mac" (18 + 16) Header.size

(* --- Header --- *)

let gen_header =
  QCheck.Gen.(
    map
      (fun (sfl, (secret, confounder, timestamp)) ->
        {
          Header.sfl = Sfl.of_int64 (Int64.of_int sfl);
          suite = Suite.paper_md5_des;
          secret;
          confounder = confounder land 0xffffffff;
          timestamp = timestamp land 0xffffffff;
          mac = String.make 16 (Char.chr (sfl land 0xff));
        })
      (pair nat (triple bool nat nat)))

let arb_header =
  QCheck.make
    ~print:(fun (h : Header.t) ->
      Fmt.str "%a suite=%d secret=%b conf=%08x ts=%d" Sfl.pp h.sfl h.suite.Suite.id h.secret
        h.confounder h.timestamp)
    gen_header

let header_equal (a : Header.t) (b : Header.t) =
  Sfl.equal a.Header.sfl b.Header.sfl
  && a.Header.suite.Suite.id = b.Header.suite.Suite.id
  && a.Header.secret = b.Header.secret
  && a.Header.confounder = b.Header.confounder
  && a.Header.timestamp = b.Header.timestamp
  && String.equal a.Header.mac b.Header.mac

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header encode/decode roundtrip" ~count:300
    (QCheck.pair arb_header arbitrary_bytes) (fun (h, body) ->
      match Header.decode (Header.encode h ^ body) with
      | Ok (h', body') -> header_equal h' h && body' = body
      | Error _ -> false)

let prop_header_truncation =
  QCheck.Test.make ~name:"truncated headers rejected" ~count:100
    (QCheck.pair arb_header (QCheck.int_bound 100)) (fun (h, cut) ->
      let wire = Header.encode h in
      let cut = cut mod String.length wire in
      match Header.decode (String.sub wire 0 cut) with
      | Error Header.Truncated -> true
      | Error (Header.Unknown_suite _ | Header.Bad_flags _) -> false
      | Ok _ -> false)

let prop_header_fuzz_no_exception =
  QCheck.Test.make ~name:"decode of arbitrary bytes never raises" ~count:1000
    arbitrary_bytes (fun raw ->
      match Header.decode raw with
      | Ok _ -> true
      | Error (Header.Truncated | Header.Unknown_suite _ | Header.Bad_flags _) -> true
      | exception _ -> false)

(* Decoding is canonical: whenever arbitrary bytes decode, re-encoding the
   header and body reproduces the input exactly — so no two distinct wire
   strings parse to the same datagram.  The suite and flags bytes are
   pinned to valid values so the property actually exercises the Ok
   branch; all other bytes stay adversarial. *)
let prop_header_decode_canonical =
  QCheck.Test.make ~name:"decode is canonical (re-encode = raw)" ~count:500
    (QCheck.pair arbitrary_bytes QCheck.bool) (fun (raw, secret) ->
      let raw =
        if String.length raw > 9 then begin
          let b = Bytes.of_string raw in
          Bytes.set b 8 (Char.chr Suite.paper_md5_des.Suite.id);
          Bytes.set b 9 (if secret then '\001' else '\000');
          Bytes.to_string b
        end
        else raw
      in
      match Header.decode raw with
      | Error _ -> true
      | Ok (h, body) -> String.equal (Header.encode h ^ body) raw)

(* Deterministic sweep over EVERY prefix length of a valid wire datagram:
   short prefixes must decode to Truncated (never raise, never
   misclassify), and once the full header is present the decode succeeds
   with the corresponding body prefix. *)
let test_header_every_prefix () =
  let h =
    {
      Header.sfl = Sfl.of_int64 0x0102030405060708L;
      suite = Suite.paper_md5_des;
      secret = true;
      confounder = 0xdeadbeef;
      timestamp = 77;
      mac = String.init 16 (fun i -> Char.chr (0x40 + i));
    }
  in
  let header_len = Header.size in
  let wire = Header.encode h ^ "body bytes here" in
  for n = 0 to String.length wire do
    match Header.decode (String.sub wire 0 n) with
    | Ok (h', body) ->
        if n < header_len then
          Alcotest.failf "prefix %d decoded despite truncated header" n;
        check Alcotest.bool (Printf.sprintf "prefix %d header" n) true
          (header_equal h h');
        check Alcotest.string
          (Printf.sprintf "prefix %d body" n)
          (String.sub wire header_len (n - header_len))
          body
    | Error Header.Truncated ->
        if n >= header_len then
          Alcotest.failf "prefix %d rejected despite complete header" n
    | Error (Header.Unknown_suite _ | Header.Bad_flags _) ->
        Alcotest.failf "prefix %d of a valid wire misclassified" n
    | exception e ->
        Alcotest.failf "prefix %d raised %s" n (Printexc.to_string e)
  done

let test_header_unknown_suite () =
  let h =
    {
      Header.sfl = Sfl.of_int64 5L;
      suite = Suite.paper_md5_des;
      secret = false;
      confounder = 1;
      timestamp = 2;
      mac = String.make 16 'm';
    }
  in
  let wire = Bytes.of_string (Header.encode h ^ "body") in
  Bytes.set wire 8 '\x63' (* suite byte := 99 *);
  match Header.decode (Bytes.to_string wire) with
  | Error (Header.Unknown_suite 99) -> ()
  | _ -> Alcotest.fail "expected Unknown_suite"

let test_header_confounder_iv () =
  let h =
    {
      Header.sfl = Sfl.of_int64 5L;
      suite = Suite.paper_md5_des;
      secret = true;
      confounder = 0x01020304;
      timestamp = 0;
      mac = String.make 16 'm';
    }
  in
  check Alcotest.string "duplicated confounder" "\x01\x02\x03\x04\x01\x02\x03\x04"
    (Fbsr_oracles.Reference.confounder_iv h);
  check Alcotest.int "size" Header.size (String.length (Header.encode h))

(* --- Replay --- *)

(* What the engine does for a datagram whose MAC verifies: probe in the
   prologue, commit on acceptance. *)
let admit ?(peer = Principal.of_string "peer") r ~now ~sfl ~confounder ~timestamp =
  match Replay.probe r ~now ~sfl ~peer ~confounder ~timestamp with
  | Replay.Fresh ->
      if Replay.commit r ~sfl ~peer ~confounder ~timestamp then Replay.Fresh
      else Replay.Duplicate
  | v -> v

let test_replay_window () =
  let r = Replay.create ~window_minutes:2 () in
  let sfl = Sfl.of_int64 1L in
  let at now ts = admit r ~now ~sfl ~confounder:1 ~timestamp:ts in
  let now = 600.0 in
  (* now = minute 10 *)
  check Alcotest.bool "current accepted" true (at now 10 = Replay.Fresh);
  check Alcotest.bool "edge -2 accepted" true (at now 8 = Replay.Fresh);
  check Alcotest.bool "edge +2 accepted" true (at now 12 = Replay.Fresh);
  check Alcotest.bool "-3 stale" true (at now 7 = Replay.Stale);
  check Alcotest.bool "+3 stale" true (at now 13 = Replay.Stale);
  let s = Replay.stats r in
  check Alcotest.int "accepted" 3 s.Replay.accepted;
  check Alcotest.int "stale" 2 s.Replay.rejected_stale

let test_replay_strict_duplicates () =
  let r = Replay.create ~window_minutes:2 ~strict:true () in
  let sfl = Sfl.of_int64 9L in
  let go conf = admit r ~now:600.0 ~sfl ~confounder:conf ~timestamp:10 in
  (* A probe alone records nothing: a datagram that fails its MAC after
     the probe leaves no trace for the genuine copy to collide with. *)
  let peer = Principal.of_string "peer" in
  let probe conf =
    Replay.probe r ~now:600.0 ~sfl ~peer ~confounder:conf ~timestamp:10
  in
  check Alcotest.bool "probe" true (probe 7 = Replay.Fresh);
  check Alcotest.bool "probe again" true (probe 7 = Replay.Fresh);
  check Alcotest.bool "first" true (go 7 = Replay.Fresh);
  check Alcotest.bool "exact duplicate" true (go 7 = Replay.Duplicate);
  (* Two copies that both passed the probe: the second commit loses. *)
  check Alcotest.bool "probed copy" true (probe 8 = Replay.Fresh);
  check Alcotest.bool "different confounder ok" true (go 8 = Replay.Fresh);
  check Alcotest.bool "late commit of the probed copy" false
    (Replay.commit r ~sfl ~peer ~confounder:8 ~timestamp:10);
  (* A different flow with the same confounder is not a duplicate. *)
  check Alcotest.bool "different sfl ok" true
    (admit r ~now:600.0 ~sfl:(Sfl.of_int64 10L) ~confounder:7 ~timestamp:10
     = Replay.Fresh);
  (* Nor is another sender's datagram with the same sfl and confounder:
     an sfl is unique only per sender. *)
  check Alcotest.bool "different peer ok" true
    (admit ~peer:(Principal.of_string "other") r ~now:600.0 ~sfl ~confounder:7
       ~timestamp:10
     = Replay.Fresh);
  let s = Replay.stats r in
  check Alcotest.int "accepted counts commits" 4 s.Replay.accepted;
  check Alcotest.int "duplicates from probe and commit" 2 s.Replay.rejected_duplicate

let test_replay_strict_gc () =
  let r = Replay.create ~window_minutes:1 ~strict:true () in
  let sfl = Sfl.of_int64 2L in
  ignore (admit r ~now:60.0 ~sfl ~confounder:1 ~timestamp:1);
  (* Long after the window the entry is gone, and the timestamp is stale
     anyway: strict mode state cannot grow without bound. *)
  check Alcotest.bool "stale later" true
    (admit r ~now:6000.0 ~sfl ~confounder:1 ~timestamp:1 = Replay.Stale)

let test_replay_clock_skew () =
  (* Sender/receiver clock skew in either direction up to the window is
     tolerated; one minute beyond it is stale.  Receiver sits at minute
     100; the timestamp plays the part of the skewed sender clock. *)
  let r = Replay.create ~window_minutes:3 () in
  let at now ts =
    admit r ~now ~sfl:(Sfl.of_int64 4L) ~confounder:9 ~timestamp:ts
  in
  check Alcotest.bool "sender 3 min ahead" true (at 6000.0 103 = Replay.Fresh);
  check Alcotest.bool "sender 4 min ahead" true (at 6000.0 104 = Replay.Stale);
  check Alcotest.bool "sender 3 min behind" true (at 6000.0 97 = Replay.Fresh);
  check Alcotest.bool "sender 4 min behind" true (at 6000.0 96 = Replay.Stale);
  (* Sub-minute receiver time does not widen the window: 100m59s is still
     minute 100. *)
  check Alcotest.bool "fractional minute, boundary holds" true
    (at 6059.0 103 = Replay.Fresh);
  check Alcotest.bool "fractional minute, beyond boundary" true
    (at 6059.0 104 = Replay.Stale)

let test_replay_duplicate_after_eviction () =
  (* Strict-mode GC evicts entries that leave the window — but an evicted
     datagram cannot sneak back in, because leaving the window is exactly
     what makes it stale.  Eviction never re-opens acceptance. *)
  let r = Replay.create ~window_minutes:1 ~strict:true () in
  let go now ts =
    admit r ~now ~sfl:(Sfl.of_int64 3L) ~confounder:5 ~timestamp:ts
  in
  check Alcotest.bool "fresh at minute 10" true (go 600.0 10 = Replay.Fresh);
  check Alcotest.bool "duplicate at minute 11 (still in window)" true
    (go 660.0 10 = Replay.Duplicate);
  (* At minute 12 the GC drops the ts=10 entry; the same datagram is now
     stale, not fresh. *)
  check Alcotest.bool "stale at minute 12 (after eviction)" true
    (go 720.0 10 = Replay.Stale);
  let s = Replay.stats r in
  check Alcotest.int "one duplicate" 1 s.Replay.rejected_duplicate;
  check Alcotest.int "one stale" 1 s.Replay.rejected_stale

let test_minutes_encoding () =
  check Alcotest.int "0s" 0 (Replay.minutes_of_seconds 0.0);
  check Alcotest.int "59s" 0 (Replay.minutes_of_seconds 59.0);
  check Alcotest.int "60s" 1 (Replay.minutes_of_seconds 60.0);
  check Alcotest.int "1h" 60 (Replay.minutes_of_seconds 3600.0)

(* --- Cache --- *)

(* Int keys are never negative here, so [succ] is an injective
   fingerprint that avoids 0, the classifier's empty marker. *)
let int_cache ?(assoc = 1) ~sets () : (int, string) Cache.t =
  Cache.create ~assoc ~sets ~hash:(fun k -> Fbsr_util.Crc32.update_int32 0 k)
    ~fingerprint:succ ~equal:Int.equal ()

let test_cache_basic () =
  let c = int_cache ~sets:8 () in
  check Alcotest.bool "miss on empty" true (Cache.find c 1 = None);
  Cache.insert c 1 "one";
  check Alcotest.(option string) "hit" (Some "one") (Cache.find c 1);
  Cache.insert c 1 "uno";
  check Alcotest.(option string) "update in place" (Some "uno") (Cache.find c 1);
  Cache.invalidate c 1;
  check Alcotest.bool "gone" true (Cache.find c 1 = None);
  let s = Cache.stats c in
  check Alcotest.int "hits" 2 s.Cache.hits

let test_cache_peek_silent () =
  let c = int_cache ~sets:8 () in
  Cache.insert c 1 "one";
  let before = (Cache.stats c).Cache.hits in
  ignore (Cache.peek c 1);
  ignore (Cache.peek c 2);
  check Alcotest.int "peek does not count" before (Cache.stats c).Cache.hits

let test_cache_direct_mapped_conflict () =
  (* With one set, any two keys conflict. *)
  let c = int_cache ~sets:1 () in
  Cache.insert c 1 "one";
  Cache.insert c 2 "two";
  check Alcotest.bool "evicted" true (Cache.peek c 1 = None);
  check Alcotest.(option string) "resident" (Some "two") (Cache.peek c 2);
  check Alcotest.int "eviction counted" 1 (Cache.stats c).Cache.evictions

let test_cache_assoc_lru () =
  let c = int_cache ~assoc:2 ~sets:1 () in
  Cache.insert c 1 "one";
  Cache.insert c 2 "two";
  (* Touch 1 so that 2 is the LRU victim. *)
  ignore (Cache.find c 1);
  Cache.insert c 3 "three";
  check Alcotest.bool "lru (2) evicted" true (Cache.peek c 2 = None);
  check Alcotest.(option string) "mru (1) kept" (Some "one") (Cache.peek c 1);
  check Alcotest.(option string) "new resident" (Some "three") (Cache.peek c 3)

let test_cache_miss_classification () =
  let c = int_cache ~sets:1 () in
  (* Cold miss. *)
  ignore (Cache.find c 1);
  Cache.insert c 1 "one";
  (* Cold miss for 2, evicts 1. *)
  ignore (Cache.find c 2);
  Cache.insert c 2 "two";
  (* Miss for 1 again: it IS in the shadow fully-associative cache of
     capacity 1? No — shadow capacity is 1 and 2 displaced it: capacity
     miss.  With a bigger cache this becomes a conflict miss. *)
  ignore (Cache.find c 1);
  let s = Cache.stats c in
  check Alcotest.int "cold misses" 2 s.Cache.misses_cold;
  check Alcotest.int "capacity misses" 1 s.Cache.misses_capacity;
  (* Now a 2-entry direct-mapped cache where both keys stay in shadow:
     re-missing a seen key that fits capacity counts as conflict. *)
  let c2 : (int, string) Cache.t =
    Cache.create ~sets:2 ~hash:(fun _ -> 0) (* adversarial hash: everything集 maps to set 0 *)
      ~fingerprint:succ ~equal:Int.equal ()
  in
  ignore (Cache.find c2 1);
  Cache.insert c2 1 "one";
  ignore (Cache.find c2 2);
  Cache.insert c2 2 "two";
  ignore (Cache.find c2 1);
  let s2 = Cache.stats c2 in
  check Alcotest.int "conflict miss" 1 s2.Cache.misses_conflict

let test_cache_replacement_policies () =
  (* FIFO evicts by insertion order even if the oldest entry was just
     touched; LRU keeps the touched one. *)
  let mk replacement : (int, string) Cache.t =
    Cache.create ~assoc:2 ~sets:1 ~replacement
      ~hash:(fun k -> Fbsr_util.Crc32.update_int32 0 k)
      ~fingerprint:succ ~equal:Int.equal ()
  in
  let lru = mk Cache.Lru and fifo = mk Cache.Fifo in
  List.iter
    (fun c ->
      Cache.insert c 1 "one";
      Cache.insert c 2 "two";
      ignore (Cache.find c 1);
      (* touch 1 *)
      Cache.insert c 3 "three")
    [ lru; fifo ];
  check Alcotest.bool "LRU keeps the touched entry" true (Cache.peek lru 1 <> None);
  check Alcotest.bool "LRU evicted the stale one" true (Cache.peek lru 2 = None);
  check Alcotest.bool "FIFO evicted the oldest insertion" true (Cache.peek fifo 1 = None);
  check Alcotest.bool "FIFO kept the newer one" true (Cache.peek fifo 2 <> None);
  (* Random replacement evicts *something* in the set, keeping occupancy. *)
  let rnd = mk (Cache.Random (Fbsr_util.Rng.create 3)) in
  Cache.insert rnd 1 "one";
  Cache.insert rnd 2 "two";
  Cache.insert rnd 3 "three";
  check Alcotest.int "random stays full" 2 (Cache.occupancy rnd);
  check Alcotest.bool "new entry resident" true (Cache.peek rnd 3 <> None)

let prop_fully_associative_no_conflicts =
  (* With a single set holding all ways, the shadow fully-associative model
     and the cache coincide: conflict misses are impossible by definition. *)
  QCheck.Test.make ~name:"fully-associative cache has zero conflict misses" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 30))
    (fun keys ->
      let c : (int, int) Cache.t =
        Cache.create ~assoc:8 ~sets:1
          ~hash:(fun k -> Fbsr_util.Crc32.update_int32 0 k)
          ~fingerprint:succ ~equal:Int.equal ()
      in
      List.iter
        (fun k ->
          match Cache.find c k with
          | Some _ -> ()
          | None -> Cache.insert c k k)
        keys;
      (Cache.stats c).Cache.misses_conflict = 0)

let prop_cache_cold_bounded_by_distinct =
  QCheck.Test.make ~name:"cold misses = distinct keys touched" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 50))
    (fun keys ->
      let c : (int, int) Cache.t =
        Cache.create ~assoc:2 ~sets:4
          ~hash:(fun k -> Fbsr_util.Crc32.update_int32 0 k)
          ~fingerprint:succ ~equal:Int.equal ()
      in
      List.iter
        (fun k ->
          match Cache.find c k with
          | Some _ -> ()
          | None -> Cache.insert c k k)
        keys;
      let distinct = List.length (List.sort_uniq compare keys) in
      (Cache.stats c).Cache.misses_cold = distinct)

(* The record of inserted fingerprints against a plain reference set:
   over random inserts and finds, a miss is cold exactly when its
   fingerprint (0 read as 1) was never inserted.  Keys are their own
   fingerprints.  The draws mix 0 and 1 (one fingerprint to the
   classifier), small ints, arbitrary ints, and multiples of 2^48, whose
   multiplicative home is the same slot in every table of up to 2^16
   slots, so probe runs grow long and wrap; up to 600 operations take
   the set through several doublings. *)
let prop_cache_seen_set_matches_reference =
  let key =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ 0; 1 ]);
          (2, int_bound 40);
          (3, map (fun k -> k lsl 48) (int_range (-64) 64));
          (4, int);
        ])
  in
  let op = QCheck.Gen.(pair bool key) in
  QCheck.Test.make ~name:"seen set = reference set (growth, shared homes, fp 0 and 1)"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 1 600) op))
    (fun ops ->
      let c : (int, int) Cache.t =
        Cache.create ~sets:4 ~hash:(fun k -> k land max_int) ~fingerprint:Fun.id
          ~equal:Int.equal ()
      in
      let inserted = Hashtbl.create 64 in
      let fp k = if k = 0 then 1 else k in
      List.for_all
        (fun (is_insert, k) ->
          if is_insert then begin
            Cache.insert c k k;
            Hashtbl.replace inserted (fp k) ();
            true
          end
          else
            let cold = (Cache.stats c).Cache.misses_cold in
            match Cache.find c k with
            | Some _ -> (Cache.stats c).Cache.misses_cold = cold
            | None ->
                (Cache.stats c).Cache.misses_cold - cold
                = if Hashtbl.mem inserted (fp k) then 0 else 1)
        ops)

let prop_cache_find_after_insert =
  QCheck.Test.make ~name:"find after insert hits" ~count:200
    QCheck.(pair (int_bound 1000) (int_range 1 64))
    (fun (key, sets) ->
      let c = int_cache ~sets () in
      Cache.insert c key "v";
      Cache.find c key = Some "v")

(* The 3-C classification against a from-scratch reference model: a
   byte-for-byte reimplementation of the documented semantics (tick on
   every find and insert, shadow fully-associative LRU touched by both,
   seen-set grown on insert and kept across [clear], per-set LRU
   replacement), keyed by the keys themselves where the cache knows only
   their fingerprints.  [ops] run on both; an [Access] is the engine's
   lookup: a find, and an insert when it missed.  The statistics must be
   identical, and the counters must add up: every find is exactly one of
   hit/cold/capacity/conflict. *)
type 'k cache_op = Access of 'k | Find of 'k | Insert of 'k | Invalidate of 'k | Clear

let agrees_with_reference ~sets ~assoc ~index (cache : ('k, unit) Cache.t) ops =
  let capacity = sets * assoc in
  let tick = ref 0 in
  let slots = Array.make capacity None (* (key, last_used) *) in
  let seen = Hashtbl.create 16 in
  let shadow = Hashtbl.create 16 (* key -> last tick *) in
  let hits = ref 0
  and cold = ref 0
  and cap = ref 0
  and conf = ref 0
  and evictions = ref 0
  and finds = ref 0 in
  let base key = index key mod sets * assoc in
  let shadow_touch key =
    Hashtbl.replace shadow key !tick;
    if Hashtbl.length shadow > capacity then begin
      (* Ticks are unique, so the LRU victim is unambiguous. *)
      let victim =
        Hashtbl.fold
          (fun k t acc ->
            match acc with Some (_, bt) when bt < t -> acc | _ -> Some (k, t))
          shadow None
      in
      match victim with Some (k, _) -> Hashtbl.remove shadow k | None -> ()
    end
  in
  let ref_find key =
    incr tick;
    incr finds;
    let b = base key in
    let hit = ref false in
    for w = 0 to assoc - 1 do
      match slots.(b + w) with
      | Some (k, _) when k = key ->
          slots.(b + w) <- Some (k, !tick);
          hit := true
      | _ -> ()
    done;
    (if !hit then incr hits
     else if not (Hashtbl.mem seen key) then incr cold
     else if Hashtbl.mem shadow key then incr conf
     else incr cap);
    shadow_touch key
  in
  let ref_insert key =
    incr tick;
    let b = base key in
    let existing = ref None and empty = ref None in
    for w = 0 to assoc - 1 do
      match slots.(b + w) with
      | Some (k, _) when k = key -> existing := Some (b + w)
      | Some _ -> ()
      | None -> if !empty = None then empty := Some (b + w)
    done;
    let idx =
      match (!existing, !empty) with
      | Some i, _ -> i
      | None, Some i -> i
      | None, None ->
          incr evictions;
          (* LRU within the set. *)
          let best = ref b in
          for w = 1 to assoc - 1 do
            match (slots.(b + w), slots.(!best)) with
            | Some (_, t), Some (_, bt) when t < bt -> best := b + w
            | _ -> ()
          done;
          !best
    in
    slots.(idx) <- Some (key, !tick);
    Hashtbl.replace seen key ();
    shadow_touch key
  in
  let ref_invalidate key =
    let b = base key in
    for w = 0 to assoc - 1 do
      match slots.(b + w) with
      | Some (k, _) when k = key -> slots.(b + w) <- None
      | _ -> ()
    done
  in
  let ref_clear () =
    Array.fill slots 0 capacity None;
    Hashtbl.reset shadow
  in
  List.iter
    (function
      | Access key -> (
          ref_find key;
          match Cache.find cache key with
          | Some () -> ()
          | None ->
              ref_insert key;
              Cache.insert cache key ())
      | Find key ->
          ref_find key;
          ignore (Cache.find cache key)
      | Insert key ->
          ref_insert key;
          Cache.insert cache key ()
      | Invalidate key ->
          ref_invalidate key;
          Cache.invalidate cache key
      | Clear ->
          ref_clear ();
          Cache.clear cache)
    ops;
  let s = Cache.stats cache in
  s.Cache.hits = !hits
  && s.Cache.misses_cold = !cold
  && s.Cache.misses_capacity = !cap
  && s.Cache.misses_conflict = !conf
  && s.Cache.evictions = !evictions
  (* The invariant the classification must preserve: every find is
     exactly one of the four outcomes. *)
  && s.Cache.hits + Cache.total_misses s = !finds

(* Random find/insert/invalidate/clear workloads over small int keys.
   [clear] is one op in 21, so the shadow still fills and evicts between
   clears. *)
let prop_cache_classification_matches_reference =
  QCheck.Test.make ~name:"3-C classification = brute-force reference" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 300) (pair (int_bound 20) (int_bound 40)))
    (fun ops ->
      let sets = 4 and assoc = 2 in
      let cache =
        Cache.create ~assoc ~sets ~hash:(fun k -> k) ~fingerprint:succ ~equal:Int.equal ()
      in
      agrees_with_reference ~sets ~assoc ~index:(fun k -> k) cache
        (List.map
           (fun (op, key) ->
             if op < 10 then Find key
             else if op < 17 then Insert key
             else if op < 20 then Invalidate key
             else Clear)
           ops))

(* The same on the engine's flow-cache keys, CRC-32 index and
   fingerprint, in a churn workload: sfls counter-allocated and used
   fresh two times in five, from four peers; a recurring key is one of
   the last 16, so keys return after eviction.  Engine lookups
   (find, insert on a miss) dominate; refused datagrams' bare finds,
   late re-inserts, invalidations and clears are mixed in. *)
let prop_cache_flow_keys_match_reference =
  QCheck.Test.make ~name:"3-C classification on engine flow keys = brute-force reference"
    ~count:100
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 1 400)
           (triple (int_bound 39) (int_bound 99) (int_bound 3))))
    (fun (seed, ops) ->
      let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create seed) in
      let local = Principal.of_string "10.0.0.1" in
      let peers = Array.init 4 (fun i -> Principal.of_string (Printf.sprintf "10.0.1.%d" i)) in
      let used = ref [||] in
      let key_for pick peer =
        let n = Array.length !used in
        if pick < 40 || n = 0 then begin
          let k = Engine.Key.make ~local ~sfl:(Sfl.fresh alloc) ~peer:peers.(peer) in
          used := Array.append !used [| k |];
          k
        end
        else !used.(n - 1 - (pick mod min 16 n))
      in
      let ops =
        List.map
          (fun (op, pick, peer) ->
            if op = 39 then Clear
            else
              let key = key_for pick peer in
              if op < 26 then Access key
              else if op < 31 then Find key
              else if op < 36 then Insert key
              else Invalidate key)
          ops
      in
      let sets = 8 and assoc = 1 in
      let cache =
        Cache.create ~assoc ~sets ~hash:Engine.Key.index ~fingerprint:Engine.Key.fingerprint
          ~equal:Engine.Key.equal ()
      in
      agrees_with_reference ~sets ~assoc ~index:Engine.Key.index cache ops)

(* Fingerprints of 10^5 distinct flow keys are distinct: ten peers whose
   allocators share a seed, so each sfl recurs under every peer and only
   the peer tells the keys apart. *)
let prop_flow_key_fingerprints_distinct =
  QCheck.Test.make ~name:"10^5 flow keys, 10^5 fingerprints" ~count:3 QCheck.small_nat
    (fun seed ->
      let local = Principal.of_string "10.0.0.1" in
      let fps =
        Array.concat
          (List.init 10 (fun p ->
               let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create seed) in
               let peer = Principal.of_string (Printf.sprintf "10.0.1.%d" p) in
               Array.init 10_000 (fun _ ->
                   Engine.Key.fingerprint (Engine.Key.make ~local ~sfl:(Sfl.fresh alloc) ~peer))))
      in
      Array.sort Int.compare fps;
      let distinct = ref true in
      for i = 1 to Array.length fps - 1 do
        if fps.(i) = fps.(i - 1) then distinct := false
      done;
      !distinct)

let test_cache_occupancy_clear () =
  let c = int_cache ~sets:16 () in
  for i = 1 to 10 do
    Cache.insert c i "x"
  done;
  check Alcotest.bool "occupancy bounded" true (Cache.occupancy c <= 10);
  Cache.clear c;
  check Alcotest.int "cleared" 0 (Cache.occupancy c)

(* The record of every key ever inserted is a set of 8-byte
   fingerprints, not of keys: 200k distinct flow-key-shaped keys through
   a 128-set cache cost 1.32 words each (one slot at load 0.76, the set
   growing only past 7/8), and the bound is 1.25 times that.  A set
   that doubled at load 1/2 measured 2.64, and a hash table of the keys
   themselves costs 12 or more (tuple, boxed int64, bucket). *)
let test_cache_classifier_memory () =
  let c : (Engine.Key.t, int) Cache.t =
    Cache.create ~sets:128 ~hash:Engine.Key.index ~fingerprint:Engine.Key.fingerprint
      ~equal:Engine.Key.equal ()
  in
  let before = Obj.reachable_words (Obj.repr c) in
  let n = 200_000 in
  let local = Principal.of_string "10.0.0.2" and peer = Principal.of_string "10.0.0.1" in
  for i = 1 to n do
    let key = Engine.Key.make ~local ~sfl:(Sfl.of_int64 (Int64.of_int i)) ~peer in
    match Cache.find c key with Some _ -> () | None -> Cache.insert c key i
  done;
  let per_key = float_of_int (Obj.reachable_words (Obj.repr c) - before) /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "%.2f words per key <= 1.65" per_key)
    true (per_key <= 1.65);
  check Alcotest.int "every key a cold miss" n (Cache.stats c).Cache.misses_cold

(* --- Keying --- *)

let make_world () =
  let rng = Fbsr_util.Rng.create 31 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let clock = ref 1000.0 in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    let cert =
      Fbsr_cert.Authority.enroll ca ~now:!clock ~subject:name
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub)
    in
    (Principal.of_string name, priv, cert)
  in
  let resolver_calls = ref 0 in
  let resolver peer k =
    incr resolver_calls;
    match Fbsr_cert.Authority.lookup ca (Principal.to_string peer) with
    | Some c -> k (Ok c)
    | None -> k (Error "unknown principal")
  in
  let keying_for local priv =
    Keying.create ~local ~group ~private_value:priv
      ~ca_public:(Fbsr_cert.Authority.public ca) ~ca_hash:(Fbsr_cert.Authority.hash ca)
      ~resolver
      ~clock:(fun () -> !clock)
      ()
  in
  (rng, group, ca, clock, enroll, resolver_calls, keying_for)

let test_keying_master_symmetric () =
  let _, _, _, _, enroll, _, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let d, d_priv, _ = enroll "receiver" in
  let ks = keying_for s s_priv and kd = keying_for d d_priv in
  match (Keying.get_master_sync ks d, Keying.get_master_sync kd s) with
  | Ok m1, Ok m2 -> check Alcotest.string "same master key" m1 m2
  | _ -> Alcotest.fail "master key resolution failed"

let test_keying_caches_resolver () =
  let _, _, _, _, enroll, resolver_calls, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let d, _, _ = enroll "receiver" in
  let ks = keying_for s s_priv in
  ignore (Keying.get_master_sync ks d);
  ignore (Keying.get_master_sync ks d);
  ignore (Keying.get_master_sync ks d);
  check Alcotest.int "resolver called once" 1 !resolver_calls;
  check Alcotest.int "one DH computation" 1
    (Keying.counters ks).Keying.master_key_computations

let test_keying_pinned_certificate () =
  let _, _, _, _, enroll, resolver_calls, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let d, _, d_cert = enroll "receiver" in
  let ks = keying_for s s_priv in
  Keying.pin_certificate ks d_cert;
  (match Keying.get_master_sync ks d with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pinned cert should resolve");
  check Alcotest.int "no fetch needed" 0 !resolver_calls

let test_keying_rejects_expired_certificate () =
  let _, _, _, clock, enroll, _, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let d, _, _ = enroll "receiver" in
  let ks = keying_for s s_priv in
  clock := !clock +. (400.0 *. 86400.0);
  (* past the 30-day validity *)
  match Keying.get_master_sync ks d with
  | Error (Keying.Bad_certificate _) -> ()
  | Ok _ -> Alcotest.fail "expired certificate accepted"
  | Error e -> Alcotest.failf "unexpected error %a" Keying.pp_error e

let test_keying_refetches_after_expiry () =
  (* A cached master key dies with its certificate; if the CA has since
     reissued, resolution fetches the fresh certificate and recomputes. *)
  let _, group, ca, clock, enroll, resolver_calls, keying_for = make_world () in
  ignore group;
  let s, s_priv, _ = enroll "sender" in
  let d, _, _ = enroll "receiver" in
  let ks = keying_for s s_priv in
  (match Keying.get_master_sync ks d with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "initial resolution failed: %a" Keying.pp_error e);
  check Alcotest.int "one fetch so far" 1 !resolver_calls;
  (* Jump past the certificate's 30-day validity; the CA re-enrolls the
     receiver (fresh validity window, same public value). *)
  clock := !clock +. (40.0 *. 86400.0);
  let receiver_cert = Option.get (Fbsr_cert.Authority.lookup ca "receiver") in
  let (_ : Fbsr_cert.Certificate.t) =
    Fbsr_cert.Authority.enroll ca ~now:!clock ~subject:"receiver"
      ~group:receiver_cert.Fbsr_cert.Certificate.group
      ~public_value:receiver_cert.Fbsr_cert.Certificate.public_value
  in
  (match Keying.get_master_sync ks d with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-expiry resolution failed: %a" Keying.pp_error e);
  check Alcotest.int "stale cert triggered a refetch" 2 !resolver_calls;
  check Alcotest.int "master key recomputed" 2
    (Keying.counters ks).Keying.master_key_computations

let test_keying_unknown_principal () =
  let _, _, _, _, enroll, resolver_calls, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let ks = keying_for s s_priv in
  (match Keying.get_master_sync ks (Principal.of_string "stranger") with
  | Error (Keying.No_certificate _) -> ()
  | _ -> Alcotest.fail "unknown principal resolved");
  (* The resolver's failure is final: keying asks it once, and its
     retransmissions are its own business. *)
  check Alcotest.int "one resolver call" 1 !resolver_calls;
  check Alcotest.int "one fetch counted" 1
    (Keying.counters ks).Keying.certificate_fetches

let test_keying_wrong_subject () =
  (* A certificate for a different name must not satisfy a lookup, even if
     pinned under the right key slot by a confused caller. *)
  let _, _, _, _, enroll, _, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let _, _, mallory_cert = enroll "mallory" in
  let ks = keying_for s s_priv in
  (* Pinning stores under the certificate's own subject, so asking for
     "receiver" still fails. *)
  Keying.pin_certificate ks mallory_cert;
  match Keying.get_master_sync ks (Principal.of_string "receiver") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resolved against wrong certificate"

let test_keying_coalesces () =
  (* With an async resolver, concurrent requests for the same peer share
     one fetch and one DH computation. *)
  let rng = Fbsr_util.Rng.create 32 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    ignore
      (Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
         ~group:group.Fbsr_crypto.Dh.name
         ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub));
    (Principal.of_string name, priv)
  in
  let s, s_priv = enroll "sender" in
  let d, _ = enroll "receiver" in
  let pending = ref [] in
  let fetches = ref 0 in
  let resolver peer k =
    incr fetches;
    pending := (peer, k) :: !pending
  in
  let ks =
    Keying.create ~local:s ~group ~private_value:s_priv
      ~ca_public:(Fbsr_cert.Authority.public ca) ~ca_hash:(Fbsr_cert.Authority.hash ca)
      ~resolver
      ~clock:(fun () -> 0.0)
      ()
  in
  let results = ref 0 in
  Keying.get_master ks d (fun _ -> incr results);
  Keying.get_master ks d (fun _ -> incr results);
  Keying.get_master ks d (fun _ -> incr results);
  check Alcotest.int "single fetch in flight" 1 !fetches;
  (* Complete the fetch. *)
  (match !pending with
  | [ (peer, k) ] ->
      k (Ok (Option.get (Fbsr_cert.Authority.lookup ca (Principal.to_string peer))))
  | _ -> Alcotest.fail "expected one pending fetch");
  check Alcotest.int "all continuations ran" 3 !results;
  check Alcotest.int "one DH computation" 1
    (Keying.counters ks).Keying.master_key_computations

let test_flow_key_derivation () =
  let sfl = Sfl.of_int64 42L in
  let master = "master-key-bytes" in
  let src = Principal.of_string "a" and dst = Principal.of_string "b" in
  let k1 = Keying.flow_key ~sfl ~master ~src ~dst in
  check Alcotest.int "digest size" 16 (String.length k1);
  (* Deterministic. *)
  check Alcotest.string "deterministic" k1
    (Keying.flow_key ~sfl ~master ~src ~dst);
  (* Sensitive to every input. *)
  let differs k2 = check Alcotest.bool "differs" true (k1 <> k2) in
  differs (Keying.flow_key ~sfl:(Sfl.of_int64 43L) ~master ~src ~dst);
  differs (Keying.flow_key ~sfl ~master:"other master!!" ~src ~dst);
  differs (Keying.flow_key ~sfl ~master ~src:dst ~dst:src)

(* The streamed derivation against the definition: the digest, under
   the reference MD5, of the concatenation sfl (8 bytes, big endian) |
   master | len16 S | S | len16 D | D. *)
let prop_flow_key_matches_definition =
  let principal = QCheck.Gen.(string_size ~gen:printable (int_range 1 40)) in
  QCheck.Test.make ~name:"flow key = H(sfl | master | len16 S | S | len16 D | D)"
    ~count:200
    QCheck.(
      make
        Gen.(
          quad ui64 (oneofl [ 8; 128 ] >>= fun n -> string_size (return n)) principal
            principal))
    (fun (sfl, master, s, d) ->
      let sfl_bytes =
        String.init 8 (fun i ->
            Char.chr (Int64.to_int (Int64.shift_right_logical sfl (56 - (8 * i))) land 0xff))
      in
      let encode p =
        let n = String.length p in
        String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff)) ^ p
      in
      let input = sfl_bytes ^ master ^ encode s ^ encode d in
      Keying.flow_key ~sfl:(Sfl.of_int64 sfl) ~master ~src:(Principal.of_string s)
        ~dst:(Principal.of_string d)
      = Fbsr_oracles.Md5_ref.digest input)

(* --- FAM policies --- *)

let mk_alloc () = Sfl.allocator ~rng:(Fbsr_util.Rng.create 71)
let pa = Principal.of_string "10.0.0.1"
let pb = Principal.of_string "10.0.0.2"
let pc = Principal.of_string "10.0.0.3"

let attrs ?(sp = 1000) ?(dp = 80) ?(proto = 6) ?(size = 100) ?(dst = pb) () =
  Fam.attrs ~protocol:proto ~src_port:sp ~dst_port:dp ~size ~src:pa ~dst ()

let test_five_tuple_same_flow () =
  let p = Policy_five_tuple.make ~threshold:600.0 ~alloc:(mk_alloc ()) () in
  let s1, d1 = Policy_five_tuple.map p ~now:0.0 (attrs ()) in
  let s2, d2 = Policy_five_tuple.map p ~now:100.0 (attrs ()) in
  check Alcotest.bool "fresh then existing" true (d1 = Fam.Fresh && d2 = Fam.Existing);
  check Alcotest.bool "same sfl" true (Sfl.equal s1 s2)

let test_five_tuple_distinct_tuples () =
  let p = Policy_five_tuple.make ~alloc:(mk_alloc ()) () in
  let s1, _ = Policy_five_tuple.map p ~now:0.0 (attrs ~sp:1000 ()) in
  let s2, _ = Policy_five_tuple.map p ~now:0.0 (attrs ~sp:1001 ()) in
  let s3, _ = Policy_five_tuple.map p ~now:0.0 (attrs ~proto:17 ()) in
  let s4, _ = Policy_five_tuple.map p ~now:0.0 (attrs ~dst:pc ()) in
  check Alcotest.bool "all distinct" true
    (not (Sfl.equal s1 s2) && not (Sfl.equal s1 s3) && not (Sfl.equal s1 s4)
     && not (Sfl.equal s2 s3))

let test_five_tuple_threshold_expiry () =
  let p = Policy_five_tuple.make ~threshold:600.0 ~alloc:(mk_alloc ()) () in
  let s1, _ = Policy_five_tuple.map p ~now:0.0 (attrs ()) in
  (* Within threshold: same flow; the clock of last use advances. *)
  let s2, _ = Policy_five_tuple.map p ~now:500.0 (attrs ()) in
  let s3, _ = Policy_five_tuple.map p ~now:900.0 (attrs ()) in
  (* Past threshold since last use: new flow. *)
  let s4, d4 = Policy_five_tuple.map p ~now:1600.0 (attrs ()) in
  check Alcotest.bool "rolling threshold keeps flow" true
    (Sfl.equal s1 s2 && Sfl.equal s2 s3);
  check Alcotest.bool "expired starts fresh" true
    (d4 = Fam.Fresh && not (Sfl.equal s3 s4));
  check Alcotest.int "expiry counted" 1 (Policy_five_tuple.counters p).Policy_five_tuple.expirations

let test_five_tuple_collision () =
  (* FSTSIZE=1 forces every distinct tuple to collide: the paper's
     footnote 11 behaviour (premature termination, no security impact). *)
  let p = Policy_five_tuple.make ~fst_size:1 ~alloc:(mk_alloc ()) () in
  let s1, _ = Policy_five_tuple.map p ~now:0.0 (attrs ~sp:1000 ()) in
  let _s2, d2 = Policy_five_tuple.map p ~now:0.0 (attrs ~sp:1001 ()) in
  let s3, d3 = Policy_five_tuple.map p ~now:0.0 (attrs ~sp:1000 ()) in
  check Alcotest.bool "collision evicts" true (d2 = Fam.Fresh && d3 = Fam.Fresh);
  check Alcotest.bool "returning tuple gets new flow" true (not (Sfl.equal s1 s3));
  check Alcotest.int "collisions counted" 2
    (Policy_five_tuple.counters p).Policy_five_tuple.collisions

let test_five_tuple_rekey_bytes () =
  let p =
    Policy_five_tuple.make ~max_flow_bytes:1000 ~alloc:(mk_alloc ()) ()
  in
  let s1, _ = Policy_five_tuple.map p ~now:0.0 (attrs ~size:600 ()) in
  let s2, _ = Policy_five_tuple.map p ~now:1.0 (attrs ~size:600 ()) in
  (* 1200 bytes so far >= 1000: next datagram gets a fresh key. *)
  let s3, d3 = Policy_five_tuple.map p ~now:2.0 (attrs ~size:600 ()) in
  check Alcotest.bool "same flow before limit" true (Sfl.equal s1 s2);
  check Alcotest.bool "rekeyed" true (d3 = Fam.Fresh && not (Sfl.equal s1 s3));
  check Alcotest.int "rekey counted" 1 (Policy_five_tuple.counters p).Policy_five_tuple.rekeys

let test_five_tuple_rekey_life () =
  let p = Policy_five_tuple.make ~threshold:600.0 ~max_flow_life:100.0 ~alloc:(mk_alloc ()) () in
  let s1, _ = Policy_five_tuple.map p ~now:0.0 (attrs ()) in
  let s2, _ = Policy_five_tuple.map p ~now:50.0 (attrs ()) in
  let s3, d3 = Policy_five_tuple.map p ~now:150.0 (attrs ()) in
  check Alcotest.bool "young flow persists" true (Sfl.equal s1 s2);
  check Alcotest.bool "old flow rotated" true (d3 = Fam.Fresh && not (Sfl.equal s1 s3))

let test_five_tuple_sweeper () =
  let p = Policy_five_tuple.make ~threshold:100.0 ~alloc:(mk_alloc ()) () in
  ignore (Policy_five_tuple.map p ~now:0.0 (attrs ~sp:1 ()));
  ignore (Policy_five_tuple.map p ~now:0.0 (attrs ~sp:2 ()));
  ignore (Policy_five_tuple.map p ~now:90.0 (attrs ~sp:3 ()));
  check Alcotest.int "active before sweep" 3 (Policy_five_tuple.active p ~now:95.0);
  check Alcotest.int "sweeper expires idle" 2 (Policy_five_tuple.sweep p ~now:150.0);
  check Alcotest.int "active after sweep" 1 (Policy_five_tuple.active p ~now:150.0)

let test_app_policy () =
  let alloc = mk_alloc () in
  let p = Policy_app.make ~alloc () in
  let a tag = Fam.attrs ~app_tag:tag ~src:pa ~dst:pb () in
  let s1, _ = Policy_app.map p ~now:0.0 (a "video") in
  let s2, _ = Policy_app.map p ~now:1.0 (a "video") in
  let s3, _ = Policy_app.map p ~now:1.0 (a "audio") in
  check Alcotest.bool "same tag same flow" true (Sfl.equal s1 s2);
  check Alcotest.bool "different tag different flow" false (Sfl.equal s1 s3)

(* Model-based property: with a collision-free table, the five-tuple
   policy's flow partitioning must match a reference implementation (a map
   keyed by the 5-tuple, new flow iff the gap since the tuple's last
   datagram exceeds THRESHOLD). *)
let prop_five_tuple_matches_model =
  QCheck.Test.make ~name:"five-tuple policy = reference model" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (pair (pair (int_bound 3) (int_bound 3)) (int_bound 50)))
    (fun ops ->
      let threshold = 100.0 in
      let policy =
        Policy_five_tuple.make ~fst_size:4096 ~threshold
          ~alloc:(Sfl.allocator ~rng:(Fbsr_util.Rng.create 17))
          ()
      in
      let model : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
      let now = ref 0.0 in
      List.for_all
        (fun ((sp, dp), gap) ->
          now := !now +. float_of_int gap;
          let a = attrs ~sp:(1000 + sp) ~dp:(80 + dp) () in
          let _, decision = Policy_five_tuple.map policy ~now:!now a in
          let expected =
            match Hashtbl.find_opt model (sp, dp) with
            | Some last when !now -. last <= threshold -> Fam.Existing
            | _ -> Fam.Fresh
          in
          Hashtbl.replace model (sp, dp) !now;
          decision = expected)
        ops)

let test_fam_stats () =
  let alloc = mk_alloc () in
  let fam = Fam.create (Policy_five_tuple.policy ~alloc ()) in
  ignore (Fam.classify fam ~now:0.0 (attrs ~sp:1 ()));
  ignore (Fam.classify fam ~now:0.0 (attrs ~sp:1 ()));
  ignore (Fam.classify fam ~now:0.0 (attrs ~sp:2 ()));
  let s = Fam.stats fam in
  check Alcotest.int "datagrams" 3 s.Fam.datagrams;
  check Alcotest.int "flows" 2 s.Fam.flows_started;
  check Alcotest.string "policy name" "five-tuple" (Fam.policy_name fam)

(* --- Engine --- *)

let make_engines ?(suite = Suite.paper_md5_des) ?(strict_replay = false) ?spans
    ?flowstats () =
  let _, _, _, clock, enroll, _, keying_for = make_world () in
  let s, s_priv, _ = enroll "10.0.0.1" in
  let d, d_priv, _ = enroll "10.0.0.2" in
  let engine_for p priv seed =
    let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create seed) in
    let fam = Fam.create (Policy_five_tuple.policy ~alloc ()) in
    Engine.create ~suite ~strict_replay ?spans ?flowstats ~keying:(keying_for p priv)
      ~fam ()
  in
  (clock, s, d, engine_for s s_priv 1, engine_for d d_priv 2)

(* The flow key the sender actually sealed (sfl, [src] -> [dst]) under:
   its TFKC entry, read without touching the cache's statistics. *)
let sender_flow_key es ~sfl ~src ~dst =
  match Cache.peek (Engine.tfkc es) (Engine.Key.make ~local:src ~sfl ~peer:dst) with
  | Some e -> Engine.flow_entry_key e
  | None -> Alcotest.fail "flow key not in the sender's TFKC"

(* Body sizing laws: plaintext bodies are length-preserving; sealed
   secret bodies never shrink and never outgrow [max_body_growth], and
   NOP's are the payload. *)
let prop_armor_body_len =
  let counters = lazy (let _, _, _, es, _ = make_engines () in Engine.counters es) in
  QCheck.Test.make ~count:200 ~name:"armor sealed_body_len bounds"
    QCheck.(pair (int_range 0 9000) bool)
    (fun (len, nop) ->
      let ctx = Armor.make_ctx ~nop (Lazy.force counters) in
      let plain = Armor.sealed_body_len ctx ~secret:false len in
      let sealed = Armor.sealed_body_len ctx ~secret:true len in
      plain = len && sealed >= len
      && sealed <= len + Armor.max_body_growth
      && (sealed = len) = nop)

let test_engine_roundtrips_all_suites () =
  List.iter
    (fun suite ->
      let clock, s, d, es, ed = make_engines ~suite () in
      let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
      List.iter
        (fun (secret, payload) ->
          match Engine.send_sync es ~now:!clock ~attrs ~secret ~payload with
          | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
          | Ok wire -> (
              match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
              | Ok acc ->
                  check Alcotest.string
                    (Suite.name suite ^ if secret then " secret" else " plain")
                    payload acc.Engine.payload
              | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e))
        [ (false, "plain payload"); (true, "secret payload"); (true, "");
          (false, ""); (true, String.make 5000 'z') ])
    Suite.all

let test_engine_keysched_cache () =
  (* The DES key schedule is expanded once per flow entry and reused for
     every subsequent datagram; eviction (here: an explicit clear) drops
     the schedule with the entry and costs one fresh expansion. *)
  let clock, s, d, es, ed = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let roundtrip () =
    match Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"sched" with
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
    | Ok wire -> (
        match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e)
  in
  roundtrip ();
  let cs = Engine.counters es and cd = Engine.counters ed in
  let m0_send = cs.Engine.keysched_misses in
  let m0_recv = cd.Engine.keysched_misses in
  check Alcotest.bool "first datagram expands (send)" true (m0_send > 0);
  check Alcotest.bool "first datagram expands (recv)" true (m0_recv > 0);
  let h0 = cs.Engine.keysched_hits in
  for _ = 1 to 5 do
    roundtrip ()
  done;
  check Alcotest.int "steady state pays no expansions (send)" m0_send
    cs.Engine.keysched_misses;
  check Alcotest.int "steady state pays no expansions (recv)" m0_recv
    cd.Engine.keysched_misses;
  check Alcotest.bool "steady state reuses schedules" true
    (cs.Engine.keysched_hits > h0);
  Cache.clear (Engine.tfkc es);
  roundtrip ();
  check Alcotest.bool "eviction drops schedules with the entry" true
    (cs.Engine.keysched_misses > m0_send);
  (* The counters are observable as registered metrics probes. *)
  let m = Fbsr_util.Metrics.create () in
  Engine.register_metrics es m;
  check Alcotest.int "fbs.engine.keysched.hits probe" cs.Engine.keysched_hits
    (Fbsr_util.Metrics.get m "fbs.engine.keysched.hits");
  check Alcotest.int "fbs.engine.keysched.misses probe" cs.Engine.keysched_misses
    (Fbsr_util.Metrics.get m "fbs.engine.keysched.misses")

let test_engine_macmid_cache () =
  (* The per-flow MAC midstate (frozen K_f absorption) is built once per
     flow entry and resumed for every subsequent datagram; eviction drops
     it with the entry, so the next datagram pays one rebuild.  Mirrors
     the key-schedule cache test above — the two caches live in the same
     entry but miss independently. *)
  let clock, s, d, es, ed = make_engines ~suite:Suite.paper_md5_des () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let roundtrip () =
    match Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"midstate" with
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
    | Ok wire -> (
        match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e)
  in
  roundtrip ();
  let cs = Engine.counters es and cd = Engine.counters ed in
  let m0_send = cs.Engine.mac_midstate_misses in
  let m0_recv = cd.Engine.mac_midstate_misses in
  check Alcotest.bool "first datagram builds the midstate (send)" true (m0_send > 0);
  check Alcotest.bool "first datagram builds the midstate (recv)" true (m0_recv > 0);
  let h0 = cs.Engine.mac_midstate_hits in
  for _ = 1 to 5 do
    roundtrip ()
  done;
  check Alcotest.int "steady state rebuilds nothing (send)" m0_send
    cs.Engine.mac_midstate_misses;
  check Alcotest.int "steady state rebuilds nothing (recv)" m0_recv
    cd.Engine.mac_midstate_misses;
  check Alcotest.bool "steady state resumes the midstate" true
    (cs.Engine.mac_midstate_hits > h0);
  Cache.clear (Engine.tfkc es);
  roundtrip ();
  check Alcotest.bool "eviction kills the midstate with the entry" true
    (cs.Engine.mac_midstate_misses > m0_send);
  let m = Fbsr_util.Metrics.create () in
  Engine.register_metrics es m;
  check Alcotest.int "fbs.engine.macmid.hits probe" cs.Engine.mac_midstate_hits
    (Fbsr_util.Metrics.get m "fbs.engine.macmid.hits");
  check Alcotest.int "fbs.engine.macmid.misses probe" cs.Engine.mac_midstate_misses
    (Fbsr_util.Metrics.get m "fbs.engine.macmid.misses")

let test_engine_midstate_seal_byte_equal () =
  (* The midstate path must change nothing on the wire: the sealed MAC
     equals the pre-midstate construction (hash over the key-prefixed
     prelude + payload) recomputed here from first principles. *)
  let clock, s, d, es, _ = make_engines ~suite:Suite.paper_md5_des () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let payload = "the MAC midstate must be invisible on the wire" in
  match Engine.send_sync es ~now:!clock ~attrs ~secret:false ~payload with
  | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
  | Ok wire ->
      let h =
        match Header.decode wire with
        | Ok (h, _) -> h
        | Error _ -> Alcotest.fail "wire undecodable"
      in
      let flow_key = sender_flow_key es ~sfl:h.Header.sfl ~src:s ~dst:d in
      let prelude =
        Fbsr_oracles.Reference.auth_bytes h
        ^ Fbsr_oracles.Reference.confounder_bytes h
        ^ Fbsr_oracles.Reference.timestamp_bytes h
      in
      let reference =
        Fbsr_oracles.Reference.mac ~key:flow_key [ prelude; payload ]
      in
      check Alcotest.string "wire MAC = pre-midstate prefix MAC"
        (Fbsr_util.Hex.encode reference) (Fbsr_util.Hex.encode h.Header.mac)

(* --- Batched ≡ inline: one table-driven differential ---

   The same datagrams go through [send] with no batch, and through a
   seal batch (each secret seal parks, or runs beside the parked one on
   the two-chain kernel; an odd one out waits for the final flush), for
   every suite in [Suite.all].  Each row runs in its own identically
   seeded world, so the confounder streams agree and the batched row must
   reproduce the inline row's wires, verdicts, payload bytes, counters
   and span terminals exactly.  NOP, which encrypts nothing, and
   non-secret datagrams must never park. *)

type batch_row = Inline | Batched

(* Two datagrams on each of six flows, secret and not, empty to multi-block.
   Two multi-block secret seals sit next to each other, so the two-chain
   kernel runs both chains side by side, not only the longer one's tail. *)
let batch_frames =
  List.concat_map
    (fun round ->
      List.mapi
        (fun flow (secret, payload) -> (flow, secret, payload ^ round))
        [
          (true, "batch differential ");
          (true, "");
          (false, "auth-only rides the same call ");
          (true, String.make 2000 'z');
          (true, String.make 100 's');
          (false, "");
        ])
    [ "r0"; "r1" ]

(* The receive-side drop causes, each named by its metric's suffix. *)
let causes = Engine.[ Header; Stale; Duplicate; Keying; Mac; Decrypt ]

let cause_name cause =
  let metric = Engine.drop_metric cause in
  let prefix = String.length "fbs.engine.drops." in
  String.sub metric prefix (String.length metric - prefix)

let drops c = List.fold_left (fun n cause -> n + Engine.drop_count c cause) 0 causes

let cause_of_error : Engine.error -> Engine.cause = function
  | Engine.Header_error _ -> Header
  | Engine.Stale _ -> Stale
  | Engine.Duplicate -> Duplicate
  | Engine.Keying_error _ -> Keying
  | Engine.Bad_mac -> Mac
  | Engine.Decrypt_error -> Decrypt

(* Every counter of the engine. *)
let datapath_counters (c : Engine.counters) =
  [
    c.Engine.sends; c.Engine.receives; c.Engine.accepted;
    c.Engine.flow_key_computations; c.Engine.flow_key_recoveries;
    c.Engine.macs_computed; c.Engine.encryptions; c.Engine.decryptions;
  ]
  @ List.map (Engine.drop_count c) causes
  @ [
      c.Engine.keysched_hits; c.Engine.keysched_misses;
      c.Engine.mac_midstate_hits; c.Engine.mac_midstate_misses;
    ]

(* Stage and outcome of every span, order-free: deferred spans finish at
   the flush, and trace ids differ between worlds. *)
let span_terminals spans =
  List.sort compare
    (List.map
       (fun (s : Fbsr_util.Span.span) ->
         (s.Fbsr_util.Span.stage, s.Fbsr_util.Span.outcome))
       (Fbsr_util.Span.spans spans))

let verdict_str = function
  | Ok (acc : Engine.accepted) -> "ok:" ^ acc.Engine.payload
  | Error e -> Format.asprintf "err:%a" Engine.pp_error e

(* What one row observed. *)
type batch_run = {
  parked : int; (* pending after every call returned, before the flush *)
  batched : int;
      (* datagrams that went through the batch, paired or parked: seal
         spans with the batched mark *)
  kernel : int option; (* the blocks the final flush ran *)
  wires : string list;
  verdicts : string list;
  counters : int list; (* the sending engine *)
  spans : (string * string) list;
}

(* Offer [n] datagrams through [call ?batch i k], check the parked ones
   are undelivered, drain the batch by a flush, and return the parked
   count, the blocks the flush ran and every delivered result. *)
let offer_through row engine n call =
  let batch =
    match row with
    | Inline -> None
    | Batched -> Some (Engine.Batch.create engine)
  in
  let got = Array.make n None in
  for i = 0 to n - 1 do
    call ?batch i (fun r ->
        if got.(i) <> None then Alcotest.failf "datagram %d completed twice" i;
        got.(i) <- Some r)
  done;
  let parked = match batch with Some b -> Engine.Batch.pending b | None -> 0 in
  let undelivered = Array.fold_left (fun n r -> if r = None then n + 1 else n) 0 got in
  check Alcotest.int "exactly the parked datagrams are undelivered" parked undelivered;
  let kernel =
    match batch with
    | Some b when parked > 0 ->
        let blocks = Engine.Batch.flush b in
        check Alcotest.int "drained" 0 (Engine.Batch.pending b);
        check Alcotest.int "an empty queue flushes no blocks" 0 (Engine.Batch.flush b);
        Some blocks
    | _ -> None
  in
  ( parked,
    kernel,
    Array.to_list
      (Array.map
         (function Some r -> r | None -> Alcotest.fail "flush did not deliver")
         got) )

let batch_world ~suite =
  let spans = Fbsr_util.Span.create ~capacity:4096 () in
  let clock, s, d, es, ed = make_engines ~spans ~suite () in
  let attrs flow =
    Fam.attrs ~protocol:17 ~src_port:(4000 + flow) ~dst_port:2 ~src:s ~dst:d ()
  in
  (spans, clock, s, es, ed, attrs)

(* Seals that went through the batch: their span carries the
   ["batched"] mark. *)
let batched_seals spans =
  List.length
    (List.filter
       (fun (s : Fbsr_util.Span.span) ->
         s.Fbsr_util.Span.stage = "engine.seal"
         && List.mem_assoc "batched" s.Fbsr_util.Span.detail)
       (Fbsr_util.Span.spans spans))

let run_seal_row ~suite row =
  let spans, clock, s, es, ed, attrs = batch_world ~suite in
  let frames = Array.of_list batch_frames in
  (* Odd datagrams take the dispatcher's route: classified by the caller,
     with a caller-drawn confounder — the override must hold batched too. *)
  let now = !clock in
  let call ?batch i k =
    let flow, secret, payload = frames.(i) in
    let attrs = attrs flow in
    if i mod 2 = 0 then Engine.send ?batch es ~now ~attrs ~secret ~payload k
    else
      let sfl, _ = Fam.classify (Engine.fam es) ~now attrs in
      Engine.send_classified ?batch ~confounder:(0x5eed0 + i) es ~now ~sfl
        ~src:attrs.Fam.src ~dst:attrs.Fam.dst ~secret ~payload k
  in
  let parked, kernel, results = offer_through row es (Array.length frames) call in
  let batched = batched_seals spans in
  let wires =
    List.map
      (function
        | Ok w -> w | Error e -> Alcotest.failf "send: %a" Engine.pp_error e)
      results
  in
  let verdicts =
    List.map (fun wire -> verdict_str (Engine.receive_sync ed ~now ~src:s ~wire)) wires
  in
  let c = Engine.counters es in
  { parked; batched; kernel; wires; verdicts; counters = datapath_counters c;
    spans = span_terminals spans }

(* The one-pass seal against the pair and inline paths: under the
   paper's suite, a seal parked and flushed alone (the one-pass kernel),
   the first of a pair (MACs on [Md5], chains on the two-chain kernel)
   and an unbatched seal, all of one datagram under one confounder, give
   the same wire, and the receiver accepts it.  The
   lengths cross the MD5 block and padding boundaries and the DES-block
   counts where the padding blocks stop fitting beside the chain. *)
let test_one_pass_wires () =
  List.iter
    (fun suite ->
      let _, clock, s, es, ed, attrs = batch_world ~suite in
      let now = !clock in
      let seal ?batch flow payload =
        let a = attrs flow in
        let sfl, _ = Fam.classify (Engine.fam es) ~now a in
        let got = ref None in
        Engine.send_classified ?batch ~confounder:0x0c0ffee es ~now ~sfl ~src:a.Fam.src
          ~dst:a.Fam.dst ~secret:true ~payload (fun r -> got := Some r);
        got
      in
      let wire what r =
        match !r with
        | Some (Ok w) -> w
        | Some (Error e) -> Alcotest.failf "%s: %a" what Engine.pp_error e
        | None -> Alcotest.failf "%s: not delivered" what
      in
      List.iter
        (fun n ->
          let what fmt =
            Printf.ksprintf (fun m -> Printf.sprintf "%s, %d B: %s" (Suite.name suite) n m) fmt
          in
          let payload = String.init n (fun i -> Char.chr (((i * 13) + n) land 0xff)) in
          let inline = wire (what "inline") (seal 1 payload) in
          let batch = Engine.Batch.create es in
          let lone = seal ~batch 1 payload in
          check Alcotest.int (what "parked") 1 (Engine.Batch.pending batch);
          ignore (Engine.Batch.flush batch : int);
          let first = seal ~batch 1 payload in
          let second = seal ~batch 2 (String.make 100 'p') in
          check Alcotest.int (what "paired") 0 (Engine.Batch.pending batch);
          check Alcotest.string (what "lone = inline") inline (wire (what "lone") lone);
          check Alcotest.string (what "pair = inline") inline (wire (what "pair") first);
          check Alcotest.string (what "accepted") ("ok:" ^ payload)
            (verdict_str (Engine.receive_sync ed ~now ~src:s ~wire:inline));
          check Alcotest.string (what "partner accepted") ("ok:" ^ String.make 100 'p')
            (verdict_str
               (Engine.receive_sync ed ~now ~src:s ~wire:(wire (what "partner") second))))
        [ 0; 1; 7; 8; 9; 21; 22; 29; 30; 31; 32; 37; 38; 63; 64; 72; 93; 94; 100; 575; 576; 1460 ])
    [ Suite.paper_md5_des ]

let batch_differential () =
  let secret_frames =
    List.length (List.filter (fun (_, secret, _) -> secret) batch_frames)
  in
  List.iter
    (fun suite ->
      (* How many datagrams every batched row must send through the
         batch: each secret one, when the suite encrypts. *)
      let expected = if Suite.is_nop suite then 0 else secret_frames in
      let inline = run_seal_row ~suite Inline in
      let r = run_seal_row ~suite Batched in
      let what m = Printf.sprintf "%s: %s" (Suite.name suite) m in
      check (Alcotest.list Alcotest.string) (what "wires") inline.wires r.wires;
      check (Alcotest.list Alcotest.string) (what "verdicts and payloads")
        inline.verdicts r.verdicts;
      check (Alcotest.list Alcotest.int) (what "counters") inline.counters r.counters;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        (what "span terminals") inline.spans r.spans;
      check Alcotest.int (what "inline row used no batch") 0 inline.batched;
      check Alcotest.int (what "exactly the secret datagrams took the batch") expected
        r.batched;
      (* Each second deferred seal runs the pair, so only an odd one out
         waits for the flush. *)
      check Alcotest.int (what "parked until the flush") (expected mod 2) r.parked;
      (* The kernels' bytes are the inline row's, pinned above; here the
         final flush must have run blocks for what it drained. *)
      Option.iter
        (fun blocks -> check Alcotest.bool (what "the flush ran blocks") true (blocks > 0))
        r.kernel)
    Suite.all

let test_engine_batch_pairing () =
  (* A secret seal parks in the empty slot; the next one runs beside it
     and completes both, in call order, before its send returns.  A
     non-deferrable datagram (here: not secret) bypasses the slot: it
     flushes the parked seal, then delivers inline. *)
  let clock, s, d, es, ed = make_engines ~suite:Suite.paper_md5_des () in
  let batch = Engine.Batch.create es in
  let delivered = ref [] in
  let send i ~secret =
    Engine.send ~batch es ~now:!clock
      ~attrs:(Fam.attrs ~protocol:17 ~src_port:(3000 + i) ~dst_port:2 ~src:s ~dst:d ())
      ~secret ~payload:"pairing" (function
      | Ok _ -> delivered := i :: !delivered
      | Error e -> Alcotest.failf "send: %a" Engine.pp_error e)
  in
  let order () = List.rev !delivered in
  send 0 ~secret:true;
  check Alcotest.int "the first secret seal parks" 1 (Engine.Batch.pending batch);
  check (Alcotest.list Alcotest.int) "parked: not delivered" [] (order ());
  send 1 ~secret:false;
  check (Alcotest.list Alcotest.int) "non-secret flushes the parked seal, then delivers"
    [ 0; 1 ] (order ());
  check Alcotest.int "non-secret never parks" 0 (Engine.Batch.pending batch);
  send 2 ~secret:true;
  send 3 ~secret:true;
  check (Alcotest.list Alcotest.int) "the second secret seal completes both, in call order"
    [ 0; 1; 2; 3 ] (order ());
  check Alcotest.int "slot empty after the pair" 0 (Engine.Batch.pending batch);
  check Alcotest.int "an empty slot flushes no blocks" 0 (Engine.Batch.flush batch);
  (* A batch belongs to the engine it was created for. *)
  Alcotest.check_raises "another engine's batch refused"
    (Invalid_argument "Engine: batch bound to another engine") (fun () ->
      Engine.send ~batch ed ~now:!clock
        ~attrs:(Fam.attrs ~protocol:17 ~src_port:3998 ~dst_port:2 ~src:d ~dst:s ())
        ~secret:true ~payload:"foreign" (fun _ ->
          Alcotest.fail "a foreign batch reached the datapath"))

(* A secret send whose keying suspends seals from the resumed keying
   continuation — a later event, after [send] returned.  It seals inline
   and never parks: no caller is left to flush it. *)
let test_engine_batch_resumed_seal_inline () =
  let rng = Fbsr_util.Rng.create 33 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    ignore
      (Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
         ~group:group.Fbsr_crypto.Dh.name
         ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub));
    (Principal.of_string name, priv)
  in
  let s, s_priv = enroll "10.0.0.1" in
  let d, _ = enroll "10.0.0.2" in
  let fetch = ref None in
  let keying =
    Keying.create ~local:s ~group ~private_value:s_priv
      ~ca_public:(Fbsr_cert.Authority.public ca) ~ca_hash:(Fbsr_cert.Authority.hash ca)
      ~resolver:(fun peer k -> fetch := Some (peer, k))
      ~clock:(fun () -> 0.0)
      ()
  in
  let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create 3) in
  let fam = Fam.create (Policy_five_tuple.policy ~alloc ()) in
  let es = Engine.create ~keying ~fam () in
  let batch = Engine.Batch.create es in
  let results = ref [] in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  Engine.send ~batch es ~now:60.0 ~attrs ~secret:true ~payload:"cold flow" (fun r ->
      results := r :: !results);
  check Alcotest.int "suspended on the fetch: nothing parked" 0
    (Engine.Batch.pending batch);
  check Alcotest.int "nothing delivered before the fetch completes" 0
    (List.length !results);
  (match !fetch with
  | Some (peer, k) ->
      k (Ok (Option.get (Fbsr_cert.Authority.lookup ca (Principal.to_string peer))))
  | None -> Alcotest.fail "resolver not consulted");
  check Alcotest.int "the resumed seal did not park" 0 (Engine.Batch.pending batch);
  (match !results with
  | [ Ok wire ] -> (
      match Header.decode wire with
      | Ok (h, _) -> check Alcotest.bool "sealed secret" true h.Header.secret
      | Error _ -> Alcotest.fail "delivered wire undecodable")
  | [ Error e ] -> Alcotest.failf "send: %a" Engine.pp_error e
  | rs -> Alcotest.failf "%d results delivered, want exactly 1" (List.length rs));
  check Alcotest.int "an empty slot flushes no blocks" 0 (Engine.Batch.flush batch);
  check Alcotest.int "still exactly one result" 1 (List.length !results)

(* The seal batch's pairing under random interleavings: 0-40 sends,
   each secret or not, on one of six flows, through [send] or through
   [send_classified] with a caller-drawn confounder, with a random
   [Batch.flush] after some of them.  An identically seeded inline twin
   sends the same datagrams.  The batched wires must equal the twin's in
   offer order, every continuation must fire exactly once by the final
   flush, every one (secret or not) in call order, and at most one
   datagram may be parked after any call. *)
type pair_send = {
  p_secret : bool;
  p_flow : int;
  p_confounder : int option; (* [send_classified] with this confounder *)
  p_flush : bool; (* flush after this send *)
}

let gen_pair_sends =
  QCheck.Gen.(
    list_size (int_bound 40)
      (map
         (fun (p_secret, p_flow, p_confounder, p_flush) ->
           { p_secret; p_flow; p_confounder; p_flush })
         (quad bool (int_bound 5)
            (opt (int_bound 0xffff_ffff))
            (frequency [ (3, return false); (1, return true) ]))))

let print_pair_sends sends =
  String.concat " "
    (List.map
       (fun p ->
         Printf.sprintf "%s%d%s%s"
           (if p.p_secret then "S" else "n")
           p.p_flow
           (match p.p_confounder with Some c -> Printf.sprintf "/c%x" c | None -> "")
           (if p.p_flush then "|" else ""))
       sends)

let prop_batch_pairing =
  QCheck.Test.make ~count:40 ~name:"batched pairs = inline twin under random flushes"
    (QCheck.make ~print:print_pair_sends gen_pair_sends)
    (fun sends ->
      let sends = Array.of_list sends in
      let n = Array.length sends in
      let fail = QCheck.Test.fail_reportf in
      (* Offer every datagram through [es], and return what each
         continuation received plus the order they completed in. *)
      let offer ~batched =
        let clock, s, d, es, _ = make_engines () in
        let batch = if batched then Some (Engine.Batch.create es) else None in
        let wires = Array.make n None and order = ref [] in
        let send i p =
          let attrs =
            Fam.attrs ~protocol:17 ~src_port:(5000 + p.p_flow) ~dst_port:2 ~src:s
              ~dst:d ()
          in
          let k = function
            | Ok w ->
                if wires.(i) <> None then fail "datagram %d completed twice" i;
                wires.(i) <- Some w;
                order := i :: !order
            | Error e -> fail "send %d: %a" i Engine.pp_error e
          in
          let now = !clock and secret = p.p_secret in
          let payload = Printf.sprintf "pair %d" i in
          match p.p_confounder with
          | None -> Engine.send ?batch es ~now ~attrs ~secret ~payload k
          | Some confounder ->
              let sfl, _ = Fam.classify (Engine.fam es) ~now attrs in
              Engine.send_classified ?batch ~confounder es ~now ~sfl ~src:s ~dst:d
                ~secret ~payload k
        in
        Array.iteri
          (fun i p ->
            send i p;
            match batch with
            | None -> ()
            | Some b ->
                if Engine.Batch.pending b > 1 then fail "send %d: more than one parked" i;
                if p.p_flush then begin
                  ignore (Engine.Batch.flush b : int);
                  if Engine.Batch.pending b <> 0 then
                    fail "flush after %d left a datagram parked" i
                end)
          sends;
        Option.iter (fun b -> ignore (Engine.Batch.flush b : int)) batch;
        ( Array.mapi
            (fun i w ->
              match w with Some w -> w | None -> fail "datagram %d never completed" i)
            wires,
          List.rev !order )
      in
      let inline_wires, _ = offer ~batched:false in
      let wires, order = offer ~batched:true in
      Array.iteri
        (fun i w ->
          if not (String.equal w inline_wires.(i)) then
            fail "wire %d differs from the inline twin's" i)
        wires;
      order = List.init n Fun.id
      || fail "datagrams completed out of call order: %s"
           (String.concat " " (List.map string_of_int order)))

let test_engine_ciphertext_hides_plaintext () =
  let clock, s, d, es, _ = make_engines () in
  ignore d;
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let payload = "extremely confidential payroll" in
  match Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload with
  | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
  | Ok wire ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "no plaintext on the wire" false (contains wire "payroll")

let prop_engine_tamper_rejected =
  (* Flipping any single bit of the wire representation must be rejected
     (header fields change the MAC input or key; body bits break the MAC). *)
  QCheck.Test.make ~name:"any bit flip rejected" ~count:60 QCheck.(int_bound 10_000)
    (fun seed ->
      let clock, s, d, es, ed = make_engines () in
      let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
      match
        Engine.send_sync es ~now:!clock ~attrs ~secret:true
          ~payload:"the payload to protect"
      with
      | Error _ -> false
      | Ok wire -> (
          let pos = seed mod String.length wire in
          let bit = seed / String.length wire mod 8 in
          let tampered = Bytes.of_string wire in
          Bytes.set tampered pos
            (Char.chr (Char.code wire.[pos] lxor (1 lsl bit)));
          match
            Engine.receive_sync ed ~now:!clock ~src:s ~wire:(Bytes.to_string tampered)
          with
          | Error _ -> true
          | Ok acc ->
              (* The only acceptable "success" is when the flip landed in a
                 wire position that does not affect security NOR content —
                 there is none: header+mac+ciphertext are all covered. *)
              acc.Engine.payload = "the payload to protect" && false))

let test_engine_replay_window () =
  let clock, s, d, es, ed = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"x")
  in
  (* Fresh. *)
  (match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh rejected: %a" Engine.pp_error e);
  (* Replay within the window is accepted (the paper's stated limit). *)
  (match Engine.receive_sync ed ~now:(!clock +. 30.0) ~src:s ~wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "in-window replay rejected: %a" Engine.pp_error e);
  (* Replay past the window is rejected. *)
  match Engine.receive_sync ed ~now:(!clock +. 600.0) ~src:s ~wire with
  | Error (Engine.Stale _) -> ()
  | _ -> Alcotest.fail "stale replay accepted"

(* A stale verdict's span carries the same clock readings as the [Stale]
   error, so a drop can be explained from the recorder alone. *)
let test_engine_stale_span_detail () =
  let spans = Fbsr_util.Span.create ~capacity:4096 () in
  let clock, s, d, es, ed = make_engines ~spans () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"x")
  in
  match Engine.receive_sync ed ~now:(!clock +. 600.0) ~src:s ~wire with
  | Error (Engine.Stale { timestamp; now_minutes }) -> (
      match
        List.filter
          (fun (sp : Fbsr_util.Span.span) -> sp.Fbsr_util.Span.stage = "replay.check")
          (Fbsr_util.Span.spans spans)
      with
      | [ sp ] ->
          let detail = sp.Fbsr_util.Span.detail in
          check Alcotest.bool "verdict stale" true
            (List.assoc_opt "verdict" detail = Some (Fbsr_util.Json.String "stale"));
          check Alcotest.bool "timestamp matches the error" true
            (List.assoc_opt "timestamp" detail = Some (Fbsr_util.Json.Int timestamp));
          check Alcotest.bool "now_minutes matches the error" true
            (List.assoc_opt "now_minutes" detail
            = Some (Fbsr_util.Json.Int now_minutes))
      | l -> Alcotest.failf "expected one replay.check span, got %d" (List.length l))
  | _ -> Alcotest.fail "stale datagram not rejected as stale"

let test_engine_strict_replay () =
  let clock, s, d, es, ed = make_engines ~strict_replay:true () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"x")
  in
  (match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh rejected: %a" Engine.pp_error e);
  match Engine.receive_sync ed ~now:(!clock +. 10.0) ~src:s ~wire with
  | Error Engine.Duplicate -> ()
  | _ -> Alcotest.fail "duplicate accepted in strict mode"

(* Regression: with strict replay a corrupted copy that arrives before
   the intact datagram must not make the intact one a duplicate — the
   replay window records a datagram only once its MAC verifies.  Two
   corruptions: a flipped last byte (CBC padding refused before the MAC)
   and a flipped body byte in the middle (decrypts, then fails the MAC). *)
let test_engine_strict_replay_corrupt_first () =
  let corrupt wire pos =
    let b = Bytes.of_string wire in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    Bytes.to_string b
  in
  let payload = String.make 200 'g' in
  let seal es ~now ~attrs =
    Result.get_ok (Engine.send_sync es ~now ~attrs ~secret:true ~payload)
  in
  let clock, s, d, es, ed = make_engines ~strict_replay:true () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  (* Warm the flow on both sides. *)
  ignore (Engine.receive_sync ed ~now:!clock ~src:s ~wire:(seal es ~now:!clock ~attrs));
  let wire = seal es ~now:!clock ~attrs in
  let n = String.length wire in
  let verdicts =
    List.map
      (fun w -> verdict_str (Engine.receive_sync ed ~now:!clock ~src:s ~wire:w))
      [ corrupt wire (n - 1); corrupt wire (n - 40); wire; wire ]
  in
  let st = Replay.stats (Engine.replay ed) in
  check
    (Alcotest.list Alcotest.string)
    "corrupted copies refused, intact one delivered once"
    [ "err:decryption failed"; "err:MAC verification failed"; "ok:" ^ payload;
      "err:duplicate datagram" ]
    verdicts;
  check Alcotest.int "accepted counts verified datagrams" 2 st.Replay.accepted;
  check Alcotest.int "one duplicate" 1 st.Replay.rejected_duplicate

(* A cold flow whose first copy is refused (strict replay, last byte
   flipped: CBC padding refused) and whose intact copy then delivers.
   The refused copy's key was never cached, so the intact copy's miss is
   cold again: two derivations, neither a soft-state recovery. *)
let test_engine_refused_cold_copy_not_recovery () =
  let clock, s, d, es, ed = make_engines ~strict_replay:true () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok
      (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:(String.make 200 'c'))
  in
  let n = String.length wire in
  let flipped =
    String.mapi (fun i c -> if i = n - 1 then Char.chr (Char.code c lxor 0x01) else c) wire
  in
  (match Engine.receive_sync ed ~now:!clock ~src:s ~wire:flipped with
  | Error Engine.Decrypt_error -> ()
  | r -> Alcotest.failf "flipped copy: want a decrypt refusal, got %s" (verdict_str r));
  (match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "intact copy: %a" Engine.pp_error e);
  let c = Engine.counters ed and rfkc = Cache.stats (Engine.rfkc ed) in
  check Alcotest.int "two derivations" 2 c.Engine.flow_key_computations;
  check Alcotest.int "no recovery" 0 c.Engine.flow_key_recoveries;
  check Alcotest.int "both RFKC misses cold" 2 rfkc.Cache.misses_cold;
  check Alcotest.int "no RFKC conflict miss" 0 rfkc.Cache.misses_conflict

(* A flood from the real source with forged sfls: every copy misses the
   RFKC, costs a key derivation and is refused (its body decrypts to bad
   padding or fails the MAC under the wrong key).  None may take an
   RFKC slot, so the real flow's entry survives the flood, its next
   datagram hits, and no flow-key recovery is counted. *)
let test_engine_forged_sfl_flood () =
  let p, attrs, _ = Fbsr_experiments.Fixture.warm_pair ~secret:true () in
  let open Fbsr_experiments.Fixture in
  let payload = String.make 200 'f' in
  let seal () =
    match Engine.send_sync p.sender ~now:60.0 ~attrs ~secret:true ~payload with
    | Ok w -> w
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
  in
  let c = Engine.counters p.receiver in
  let rfkc = Cache.stats (Engine.rfkc p.receiver) in
  let recoveries0 = c.Engine.flow_key_recoveries in
  let derived0 = c.Engine.flow_key_computations in
  let wire = seal () in
  let rng = Fbsr_util.Rng.create 0xf10d in
  for _ = 1 to 2000 do
    let forged = Fbsr_util.Rng.bytes rng 8 ^ String.sub wire 8 (String.length wire - 8) in
    match Engine.receive_sync p.receiver ~now:60.0 ~src:p.src ~wire:forged with
    | Error (Engine.Bad_mac | Engine.Decrypt_error) -> ()
    | Ok _ -> Alcotest.fail "a forged sfl was delivered"
    | Error e -> Alcotest.failf "forged copy: want a MAC or decrypt refusal, got %a" Engine.pp_error e
  done;
  check Alcotest.int "each forged copy cost one derivation" 2000
    (c.Engine.flow_key_computations - derived0);
  check Alcotest.int "only the real flow holds an RFKC slot" 1
    (Cache.occupancy (Engine.rfkc p.receiver));
  let hits0 = rfkc.Cache.hits in
  (match Engine.receive_sync p.receiver ~now:60.0 ~src:p.src ~wire:(seal ()) with
  | Ok acc -> check Alcotest.string "the real flow still delivers" payload acc.Engine.payload
  | Error e -> Alcotest.failf "real flow after the flood: %a" Engine.pp_error e);
  check Alcotest.int "its entry still hits" (hits0 + 1) rfkc.Cache.hits;
  check Alcotest.int "no recovery counted" recoveries0 c.Engine.flow_key_recoveries

(* Any interleaving of intact, duplicated and corrupted copies of a few
   datagrams on flows the receiver has never seen (strict replay): each
   datagram is delivered exactly once, with its payload, no corrupted
   copy is delivered, and the RFKC holds entries only for the flows
   that delivered — a copy with a corrupted sfl derives a key but must
   not cache it.  Each extra copy is (datagram, kind): 0 an intact
   duplicate, 1 a bit flip in the sfl, 2 a bit flip anywhere, 3 a
   truncation. *)
let prop_engine_delivers_once =
  QCheck.Test.make ~name:"each intact datagram delivered once, any copy interleaving"
    ~count:40
    QCheck.(triple (int_range 1 4) (small_list (pair small_nat (int_bound 3))) int)
    (fun (n, extras, seed) ->
      let clock, s, d, es, ed = make_engines ~strict_replay:true () in
      let rng = Fbsr_util.Rng.create seed in
      let payload i = Printf.sprintf "datagram %d %s" i (String.make (37 * i) 'p') in
      let wires =
        Array.init n (fun i ->
            let attrs =
              Fam.attrs ~protocol:17 ~src_port:(100 + (i mod 2)) ~dst_port:2 ~src:s ~dst:d ()
            in
            Result.get_ok
              (Engine.send_sync es ~now:!clock ~attrs ~secret:(i <> 1) ~payload:(payload i)))
      in
      let flip w pos =
        String.mapi (fun j c -> if j = pos then Char.chr (Char.code c lxor 0x04) else c) w
      in
      let copy (i, kind) =
        let i = i mod n in
        let w = wires.(i) in
        match kind with
        | 0 -> (Some i, w)
        | 1 -> (None, flip w (Fbsr_util.Rng.int rng 8))
        | 2 -> (None, flip w (Fbsr_util.Rng.int rng (String.length w)))
        | _ -> (None, String.sub w 0 (Fbsr_util.Rng.int rng (String.length w)))
      in
      let copies = Array.of_list (List.init n (fun i -> (Some i, wires.(i))) @ List.map copy extras) in
      for j = Array.length copies - 1 downto 1 do
        let r = Fbsr_util.Rng.int rng (j + 1) in
        let t = copies.(j) in
        copies.(j) <- copies.(r);
        copies.(r) <- t
      done;
      let delivered = Array.make n 0 in
      Array.iter
        (fun (intact, wire) ->
          match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
          | Ok acc -> (
              match intact with
              | Some i when acc.Engine.payload = payload i ->
                  delivered.(i) <- delivered.(i) + 1
              | _ -> QCheck.Test.fail_report "a corrupted copy was delivered")
          | Error _ -> ())
        copies;
      let sfl_of w = String.get_int64_be w 0 in
      let real_sfls = Array.map sfl_of wires in
      let foreign =
        Cache.fold (Engine.rfkc ed)
          (fun (k : Engine.Key.t) _ acc -> acc || not (Array.mem (Sfl.to_int64 k.sfl) real_sfls))
          false
      in
      Array.for_all (fun c -> c = 1) delivered && not foreign)

let test_engine_wrong_source_rejected () =
  (* A datagram received with a claimed source that differs from the real
     sender derives a different flow key, so the MAC fails: this is the
     paper's "flow authentication". *)
  let clock, s, d, es, ed = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:false ~payload:"x")
  in
  (* Claim the datagram came from the receiver itself. *)
  match Engine.receive_sync ed ~now:!clock ~src:d ~wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted datagram with spoofed source"

let test_engine_cross_flow_splice_rejected () =
  let clock, s, d, es, ed = make_engines () in
  let a1 = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let a2 = Fam.attrs ~protocol:17 ~src_port:9 ~dst_port:2 ~src:s ~dst:d () in
  let w1 = Result.get_ok (Engine.send_sync es ~now:!clock ~attrs:a1 ~secret:true ~payload:"flow one") in
  let w2 = Result.get_ok (Engine.send_sync es ~now:!clock ~attrs:a2 ~secret:true ~payload:"flow two") in
  let hdr = Header.size in
  let spliced = String.sub w1 0 hdr ^ String.sub w2 hdr (String.length w2 - hdr) in
  match Engine.receive_sync ed ~now:!clock ~src:s ~wire:spliced with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-flow splice accepted"

let test_engine_caches_amortize () =
  let clock, s, d, es, ed = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  for i = 1 to 50 do
    let wire =
      Result.get_ok
        (Engine.send_sync es ~now:!clock ~attrs ~secret:true
           ~payload:(Printf.sprintf "datagram %d" i))
    in
    match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "receive %d: %a" i Engine.pp_error e
  done;
  (* One flow: one flow-key derivation each side, one master key each. *)
  check Alcotest.int "sender flow keys" 1
    (Engine.counters es).Engine.flow_key_computations;
  check Alcotest.int "receiver flow keys" 1
    (Engine.counters ed).Engine.flow_key_computations;
  check Alcotest.int "sender DH" 1
    (Keying.counters (Engine.keying es)).Keying.master_key_computations;
  check Alcotest.int "receiver DH" 1
    (Keying.counters (Engine.keying ed)).Keying.master_key_computations;
  check Alcotest.int "sends" 50 (Engine.counters es).Engine.sends;
  check Alcotest.int "accepted" 50 (Engine.counters ed).Engine.accepted

let test_engine_flow_key_recovery () =
  (* Soft-state recovery is observable: clearing the flow-key caches
     mid-conversation forces recomputation, counted as a recovery — the
     conversation itself never notices. *)
  let clock, s, d, es, ed = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let exchange payload =
    match Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload with
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
    | Ok wire -> (
        match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
        | Ok acc -> check Alcotest.string "payload survives" payload acc.Engine.payload
        | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e)
  in
  exchange "before the crash";
  check Alcotest.int "no recoveries yet (sender)" 0
    (Engine.counters es).Engine.flow_key_recoveries;
  check Alcotest.int "no recoveries yet (receiver)" 0
    (Engine.counters ed).Engine.flow_key_recoveries;
  (* The caches evaporate (reboot, pressure, operator): soft state only. *)
  Cache.clear (Engine.tfkc es);
  Cache.clear (Engine.rfkc ed);
  exchange "after the crash";
  check Alcotest.int "sender recovered" 1
    (Engine.counters es).Engine.flow_key_recoveries;
  check Alcotest.int "receiver recovered" 1
    (Engine.counters ed).Engine.flow_key_recoveries;
  check Alcotest.int "two computations each" 2
    (Engine.counters es).Engine.flow_key_computations;
  (* A fresh flow is a computation but NOT a recovery. *)
  let attrs2 = Fam.attrs ~protocol:17 ~src_port:999 ~dst_port:2 ~src:s ~dst:d () in
  (match Engine.send_sync es ~now:!clock ~attrs:attrs2 ~secret:false ~payload:"new flow" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "send: %a" Engine.pp_error e);
  check Alcotest.int "still one recovery" 1
    (Engine.counters es).Engine.flow_key_recoveries

(* The [recovered] flag of the ["keying.derive"] span: a first-contact
   miss recomputes nothing it had before, a hit recomputes nothing at all,
   and only a miss on a key the cache has seen (here after [clear]) is a
   recovery. *)
let test_engine_derive_recovered_flag () =
  let spans = Fbsr_util.Span.create ~capacity:4096 () in
  let clock, s, d, es, _ = make_engines ~spans () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let recovered_on_send what =
    Fbsr_util.Span.clear spans;
    ignore (Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:false ~payload:what));
    match
      List.filter
        (fun (sp : Fbsr_util.Span.span) -> sp.Fbsr_util.Span.stage = "keying.derive")
        (Fbsr_util.Span.spans spans)
    with
    | [ sp ] -> List.assoc "recovered" sp.Fbsr_util.Span.detail = Fbsr_util.Json.Bool true
    | l -> Alcotest.failf "%s: %d keying.derive spans" what (List.length l)
  in
  check Alcotest.bool "first-contact miss" false (recovered_on_send "first");
  check Alcotest.bool "hit" false (recovered_on_send "hit");
  Cache.clear (Engine.tfkc es);
  check Alcotest.bool "miss after clear" true (recovered_on_send "after clear");
  check Alcotest.int "one recovery" 1 (Engine.counters es).Engine.flow_key_recoveries

(* Forged datagrams under fresh sfls from an enrolled peer each cost the
   receiver a flow-key derivation and a classifier entry.  They must all
   drop as MAC failures, the classifier must stay a few words per forged
   sfl (the RFKC itself is bounded by its geometry), and the real flow
   must still be delivered afterwards. *)
let test_engine_forged_sfls_bounded () =
  let clock, s, d, es, ed = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let send payload =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:false ~payload)
  in
  let deliver what wire =
    match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
    | Ok acc -> check Alcotest.string what what acc.Engine.payload
    | Error e -> Alcotest.failf "%s: %a" what Engine.pp_error e
  in
  let template = send "template" in
  deliver "template" template;
  let h, body = Result.get_ok (Header.decode template) in
  let rfkc = Engine.rfkc ed in
  let before = Obj.reachable_words (Obj.repr rfkc) in
  let n = 50_000 in
  for i = 1 to n do
    let sfl = Sfl.of_int64 (Int64.logxor (Sfl.to_int64 h.Header.sfl) (Int64.of_int i)) in
    let wire = Header.encode { h with Header.sfl } ^ body in
    match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
    | Error Engine.Bad_mac -> ()
    | Ok _ -> Alcotest.failf "forged datagram %d accepted" i
    | Error e -> Alcotest.failf "forged datagram %d: %a" i Engine.pp_error e
  done;
  check Alcotest.int "every forgery a MAC drop" n
    (Engine.drop_count (Engine.counters ed) Engine.Mac);
  let per_sfl =
    float_of_int (Obj.reachable_words (Obj.repr rfkc) - before) /. float_of_int n
  in
  check Alcotest.bool (Printf.sprintf "RFKC grew %.2f words per forged sfl <= 4" per_sfl)
    true (per_sfl <= 4.0);
  deliver "after the forgeries" (send "after the forgeries")

let test_engine_header_garbage () =
  let clock, s, _, _, ed = make_engines () in
  ignore clock;
  (match Engine.receive_sync ed ~now:0.0 ~src:s ~wire:"too short" with
  | Error (Engine.Header_error Header.Truncated) -> ()
  | _ -> Alcotest.fail "short wire accepted");
  (* Unknown suite byte. *)
  let junk = String.make 64 '\x63' in
  match Engine.receive_sync ed ~now:0.0 ~src:s ~wire:junk with
  | Error (Engine.Header_error (Header.Unknown_suite _)) -> ()
  | _ -> Alcotest.fail "unknown suite accepted"

let test_engine_suite_mismatch () =
  (* A receiver configured for the paper suite refuses a NOP-suite packet:
     no algorithm downgrade. *)
  let _, s, d, _, ed = make_engines () in
  let _, _, _, clock2, enroll2, _, keying_for2 = make_world () in
  ignore clock2;
  ignore (enroll2 "unused");
  ignore keying_for2;
  let clock, _, _, es_nop, _ = make_engines ~suite:Suite.nop () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok (Engine.send_sync es_nop ~now:!clock ~attrs ~secret:true ~payload:"x")
  in
  match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
  | Error (Engine.Header_error (Header.Unknown_suite 255)) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Engine.pp_error e
  | Ok _ -> Alcotest.fail "downgrade accepted"

(* A suite id that no receiver accepts fails at the header, before any
   keying or MAC work: ids 1-5 (suites no longer shipped) and 254 (never
   one) on a paper-suite receiver, and 0 on a NOP receiver (a suite
   mismatch).  Each wire is a valid one with only its suite byte
   rewritten; each is a [Header] drop, and no MAC is computed, no flow
   key derived and the RFKC neither probed nor filled.  The untouched
   wire is accepted afterwards. *)
let test_engine_old_suite_ids_refused () =
  let refuse suite ids =
    let clock, s, d, es, ed = make_engines ~suite () in
    let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
    let wire =
      Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"old id")
    in
    let c = Engine.counters ed in
    let work () =
      let st = Cache.stats (Engine.rfkc ed) in
      [
        c.Engine.macs_computed; c.Engine.flow_key_computations; st.Cache.hits;
        st.Cache.misses_cold; st.Cache.misses_capacity; st.Cache.misses_conflict;
        Cache.occupancy (Engine.rfkc ed);
      ]
    in
    let before = work () in
    List.iter
      (fun id ->
        let what = Printf.sprintf "%s receiver, suite byte %d" (Suite.name suite) id in
        let b = Bytes.of_string wire in
        Bytes.set b 8 (Char.chr id);
        let drops = Engine.drop_count c Engine.Header in
        (match Engine.receive_sync ed ~now:!clock ~src:s ~wire:(Bytes.to_string b) with
        | Error (Engine.Header_error (Header.Unknown_suite id')) ->
            check Alcotest.int (what ^ ": refused id") id id'
        | Error e -> Alcotest.failf "%s: %a" what Engine.pp_error e
        | Ok _ -> Alcotest.failf "%s: accepted" what);
        check Alcotest.int (what ^ ": one header drop") (drops + 1)
          (Engine.drop_count c Engine.Header))
      ids;
    check (Alcotest.list Alcotest.int)
      (Suite.name suite ^ ": no MAC, derivation or RFKC work")
      before (work ());
    match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
    | Ok acc -> check Alcotest.string "the untouched wire" "old id" acc.Engine.payload
    | Error e -> Alcotest.failf "untouched wire: %a" Engine.pp_error e
  in
  refuse Suite.paper_md5_des [ 1; 2; 3; 4; 5; 254 ];
  refuse Suite.nop [ 0 ]

(* One datagram refused for each cause, then one delivered, through a
   receiver with spans and flowstats on.  Each ends in exactly one
   ["engine.receive"] terminal of its cause and bumps exactly its cause's
   counter; the error handed back maps to that cause; every drop but the
   header one is attributed to a flow.  A send-side keying failure ends
   in an ["engine.send"] terminal and bumps no drop counter. *)
let test_engine_every_cause_concludes_once () =
  let spans = Fbsr_util.Span.create ~capacity:4096 () in
  let flowstats = Flowstats.create () in
  let clock, s, d, es, ed = make_engines ~strict_replay:true ~spans ~flowstats () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let seal secret =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret ~payload:"every cause")
  in
  let flip_last wire =
    let b = Bytes.of_string wire in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  in
  let fresh = seal true in
  let stranger = Principal.of_string "stranger" in
  (* The stale one goes last: a receive ten minutes on ages the strict
     replay window's record of [fresh]. *)
  let cases =
    [
      (Engine.Header, !clock, s, "too short");
      (Engine.Duplicate, !clock, s, fresh);
      (Engine.Keying, !clock, stranger, seal true);
      (Engine.Mac, !clock, s, flip_last (seal false));
      (Engine.Decrypt, !clock, s, flip_last (seal true));
      (Engine.Stale, !clock +. 600.0, s, seal true);
    ]
  in
  (match Engine.receive_sync ed ~now:!clock ~src:s ~wire:fresh with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh datagram refused: %a" Engine.pp_error e);
  List.iter
    (fun (cause, now, src, wire) ->
      let name = cause_name cause in
      match Engine.receive_sync ed ~now ~src ~wire with
      | Ok _ -> Alcotest.failf "%s datagram accepted" name
      | Error e ->
          check Alcotest.string ("error of the " ^ name ^ " drop") name
            (cause_name (cause_of_error e)))
    cases;
  let c = Engine.counters ed in
  let terminals stage outcome =
    List.length
      (List.filter
         (fun (sp : Fbsr_util.Span.span) ->
           sp.Fbsr_util.Span.stage = stage && sp.Fbsr_util.Span.outcome = outcome)
         (Fbsr_util.Span.spans spans))
  in
  List.iter
    (fun cause ->
      let name = cause_name cause in
      check Alcotest.int ("one " ^ name ^ " drop") 1 (Engine.drop_count c cause);
      check Alcotest.int ("one " ^ name ^ " terminal") 1
        (terminals "engine.receive" (Fbsr_util.Span.drop_outcome name)))
    causes;
  check Alcotest.int "one delivery" 1 c.Engine.accepted;
  check Alcotest.int "one delivered terminal" 1 (terminals "engine.receive" "delivered");
  check Alcotest.int "every datagram received concluded once"
    c.Engine.receives
    (List.length
       (List.filter
          (fun (sp : Fbsr_util.Span.span) -> sp.Fbsr_util.Span.stage = "engine.receive")
          (Fbsr_util.Span.spans spans)));
  check Alcotest.int "drops attributed to flows: all but the header drop"
    (drops c - 1)
    (Fbsr_util.Sketch.total flowstats.Flowstats.drops);
  (* Send side: the keying failure has its terminal, and no counter. *)
  let to_stranger = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:stranger () in
  (match Engine.send_sync es ~now:!clock ~attrs:to_stranger ~secret:true ~payload:"x" with
  | Error (Engine.Keying_error _) -> ()
  | _ -> Alcotest.fail "send to an unknown principal did not fail in keying");
  check Alcotest.int "send-side keying terminal" 1
    (terminals "engine.send" (Fbsr_util.Span.drop_outcome "keying"));
  check Alcotest.int "send-side keying bumps no drop counter" 0
    (drops (Engine.counters es))

let test_engine_async_send () =
  (* With a deferred resolver, send completes only when the certificate
     arrives. *)
  let rng = Fbsr_util.Rng.create 33 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    ignore
      (Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
         ~group:group.Fbsr_crypto.Dh.name
         ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub));
    (Principal.of_string name, priv)
  in
  let s, s_priv = enroll "10.0.0.1" in
  let d, _ = enroll "10.0.0.2" in
  let pending = ref None in
  let resolver peer k = pending := Some (peer, k) in
  let keying =
    Keying.create ~local:s ~group ~private_value:s_priv
      ~ca_public:(Fbsr_cert.Authority.public ca) ~ca_hash:(Fbsr_cert.Authority.hash ca)
      ~resolver
      ~clock:(fun () -> 0.0)
      ()
  in
  let fam =
    Fam.create (Policy_five_tuple.policy ~alloc:(Sfl.allocator ~rng:(Fbsr_util.Rng.create 3)) ())
  in
  let es = Engine.create ~keying ~fam () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let result = ref None in
  Engine.send es ~now:60.0 ~attrs ~secret:true ~payload:"deferred" (fun r ->
      result := Some r);
  check Alcotest.bool "suspended" true (!result = None);
  (match !pending with
  | Some (peer, k) ->
      k (Ok (Option.get (Fbsr_cert.Authority.lookup ca (Principal.to_string peer))))
  | None -> Alcotest.fail "resolver not consulted");
  match !result with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "continuation did not complete"

let test_engine_async_receive () =
  (* The receive side can also suspend on a certificate fetch: the
     receiver needs the *sender's* public value to compute the master key
     (its first inbound datagram from a new peer). *)
  let rng = Fbsr_util.Rng.create 34 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    ignore
      (Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
         ~group:group.Fbsr_crypto.Dh.name
         ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub));
    (Principal.of_string name, priv)
  in
  let s, s_priv = enroll "10.0.0.1" in
  let d, d_priv = enroll "10.0.0.2" in
  let sync_resolver peer k =
    match Fbsr_cert.Authority.lookup ca (Principal.to_string peer) with
    | Some c -> k (Ok c)
    | None -> k (Error "unknown")
  in
  let deferred = ref None in
  let deferred_resolver peer k = deferred := Some (peer, k) in
  let mk resolver p priv seed =
    let keying =
      Keying.create ~local:p ~group ~private_value:priv
        ~ca_public:(Fbsr_cert.Authority.public ca)
        ~ca_hash:(Fbsr_cert.Authority.hash ca)
        ~resolver
        ~clock:(fun () -> 0.0)
        ()
    in
    let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create seed) in
    let fam = Fam.create (Policy_five_tuple.policy ~alloc ()) in
    Engine.create ~keying ~fam ()
  in
  let es = mk sync_resolver s s_priv 1 in
  let ed = mk deferred_resolver d d_priv 2 in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok (Engine.send_sync es ~now:60.0 ~attrs ~secret:true ~payload:"late")
  in
  let result = ref None in
  Engine.receive ed ~now:60.0 ~src:s ~wire (fun r -> result := Some r);
  check Alcotest.bool "receive suspended" true (!result = None);
  (match !deferred with
  | Some (peer, k) ->
      k (Ok (Option.get (Fbsr_cert.Authority.lookup ca (Principal.to_string peer))))
  | None -> Alcotest.fail "resolver not consulted");
  match !result with
  | Some (Ok acc) -> check Alcotest.string "payload" "late" acc.Engine.payload
  | _ -> Alcotest.fail "continuation did not complete"

(* Datagrams on one cold flow all wait for the same master key.  The
   first to resume derives the flow key and caches it (a send at once, a
   receive once its datagram verified), and the rest join that entry: one
   derivation per side, however many waited.  Each still counts its cold
   miss, since the key was not cached when it arrived.  A waiter whose
   datagram is refused caches nothing, so the next one derives again. *)
let test_engine_cold_flow_derives_once () =
  let n = 5 in
  let rng = Fbsr_util.Rng.create 35 in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    ignore
      (Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
         ~group:group.Fbsr_crypto.Dh.name
         ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub));
    (Principal.of_string name, priv)
  in
  let s, s_priv = enroll "10.0.0.1" in
  let d, d_priv = enroll "10.0.0.2" in
  (* An engine whose resolver defers every fetch until [resolve ()]. *)
  let mk p priv seed =
    let fetches = ref [] in
    let keying =
      Keying.create ~local:p ~group ~private_value:priv
        ~ca_public:(Fbsr_cert.Authority.public ca)
        ~ca_hash:(Fbsr_cert.Authority.hash ca)
        ~resolver:(fun peer k -> fetches := (peer, k) :: !fetches)
        ~clock:(fun () -> 0.0)
        ()
    in
    let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create seed) in
    let e = Engine.create ~keying ~fam:(Fam.create (Policy_five_tuple.policy ~alloc ())) () in
    let resolve () =
      let pending = List.rev !fetches in
      fetches := [];
      check Alcotest.int "one fetch" 1 (List.length pending);
      List.iter
        (fun (peer, k) ->
          k (Ok (Option.get (Fbsr_cert.Authority.lookup ca (Principal.to_string peer)))))
        pending
    in
    (e, resolve)
  in
  let es, resolve_s = mk s s_priv 1 in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wires = ref [] in
  for i = 1 to n do
    Engine.send es ~now:60.0 ~attrs ~secret:true ~payload:(Printf.sprintf "datagram %d" i)
      (fun r -> wires := Result.get_ok r :: !wires)
  done;
  check Alcotest.int "every send waits" 0 (List.length !wires);
  resolve_s ();
  let wires = List.rev !wires in
  check Alcotest.int "every send completes" n (List.length wires);
  let c = Engine.counters es in
  check Alcotest.int "the sender derives once" 1 c.Engine.flow_key_computations;
  check Alcotest.int "... expands its schedules once" 1 c.Engine.keysched_misses;
  check Alcotest.int "... and each datagram missed cold" n
    (Cache.stats (Engine.tfkc es)).Cache.misses_cold;
  let receive_all wires =
    let ed, resolve_d = mk d d_priv 2 in
    let got = ref [] in
    List.iter
      (fun wire ->
        Engine.receive ed ~now:60.0 ~src:s ~wire (function
          | Ok acc -> got := acc.Engine.payload :: !got
          | Error _ -> ()))
      wires;
    check Alcotest.int "every receive waits" 0 (List.length !got);
    resolve_d ();
    (List.rev !got, (Engine.counters ed).Engine.flow_key_computations)
  in
  let got, derived = receive_all wires in
  check Alcotest.(list string) "all delivered, in order"
    (List.init n (fun i -> Printf.sprintf "datagram %d" (i + 1)))
    got;
  check Alcotest.int "the receiver derives once" 1 derived;
  (* A forged first datagram (its MAC flipped) verifies under nothing:
     its entry is not cached, and the next waiter derives its own. *)
  let forged =
    let w = Bytes.of_string (List.hd wires) in
    let i = Header.size - 1 in
    Bytes.set w i (Char.chr (Char.code (Bytes.get w i) lxor 1));
    Bytes.to_string w
  in
  let got, derived = receive_all (forged :: List.tl wires) in
  check Alcotest.int "the rest delivered" (n - 1) (List.length got);
  check Alcotest.int "the forged one costs its own derivation" 2 derived

let test_no_pfs_by_design () =
  (* Section 6.1: "no zero-message keying protocol can provide [perfect
     forward secrecy]".  Demonstrate the concession: an attacker who
     records traffic and LATER steals a principal's DH private value can
     reconstruct the master key, re-derive the flow key from the public
     sfl, and decrypt the recording. *)
  let _, _, ca, clock, enroll, _, keying_for = make_world () in
  let s, s_priv, _ = enroll "sender" in
  let d, d_priv, _ = enroll "receiver" in
  let es =
    let alloc = Sfl.allocator ~rng:(Fbsr_util.Rng.create 1) in
    Engine.create ~keying:(keying_for s s_priv)
      ~fam:(Fam.create (Policy_five_tuple.policy ~alloc ()))
      ()
  in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    Result.get_ok
      (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"recorded secret")
  in
  (* The attack, from first principles (no engine access): steal d_priv,
     fetch the sender's public certificate, recompute everything. *)
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let sender_cert = Option.get (Fbsr_cert.Authority.lookup ca "sender") in
  let master =
    Fbsr_crypto.Dh.shared_bytes group d_priv
      (Fbsr_cert.Certificate.public_nat sender_cert)
  in
  match Header.decode wire with
  | Error _ -> Alcotest.fail "could not parse recorded wire"
  | Ok (header, body) ->
      let flow_key =
        Keying.flow_key ~sfl:header.Header.sfl ~master
          ~src:s ~dst:d
      in
      let des_key =
        Fbsr_crypto.Des.of_string
          (Fbsr_crypto.Des.adjust_parity (String.sub flow_key 0 8))
      in
      let plaintext =
        Fbsr_crypto.Des.decrypt_cbc ~iv:(Fbsr_oracles.Reference.confounder_iv header) des_key body
      in
      check Alcotest.string "stolen long-term key decrypts past traffic"
        "recorded secret" plaintext

let test_flow_key_isolation () =
  (* Section 6.1's counterpart claim: "breaking a flow key does not help in
     recovering the master key nor compromising other flow keys."  A
     compromised flow key decrypts only its own flow. *)
  let clock, s, d, es, _ = make_engines () in
  let a1 = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let a2 = Fam.attrs ~protocol:17 ~src_port:9 ~dst_port:2 ~src:s ~dst:d () in
  let w1 =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs:a1 ~secret:true ~payload:"flow one data")
  in
  let w2 =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs:a2 ~secret:true ~payload:"flow two data")
  in
  (* "Break" flow 1's key by brute force of the test setup: recompute it
     legitimately via the sender's keying (stand-in for a compromise). *)
  let master = Result.get_ok (Keying.get_master_sync (Engine.keying es) d) in
  let sfl1 =
    match Header.decode w1 with Ok (h, _) -> h.Header.sfl | Error _ -> assert false
  in
  let k1 = Keying.flow_key ~sfl:sfl1 ~master ~src:s ~dst:d in
  let des1 =
    Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity (String.sub k1 0 8))
  in
  (match Header.decode w1 with
  | Ok (h1, body1) ->
      check Alcotest.string "compromised key reads its own flow" "flow one data"
        (Fbsr_crypto.Des.decrypt_cbc ~iv:(Fbsr_oracles.Reference.confounder_iv h1) des1 body1)
  | Error _ -> Alcotest.fail "parse w1");
  match Header.decode w2 with
  | Ok (h2, body2) -> (
      (* The same key against flow 2 must NOT yield the plaintext. *)
      match Fbsr_crypto.Des.decrypt_cbc ~iv:(Fbsr_oracles.Reference.confounder_iv h2) des1 body2 with
      | plaintext ->
          check Alcotest.bool "other flow stays opaque" true
            (plaintext <> "flow two data")
      | exception Invalid_argument _ -> () (* padding garbage: also fine *))
  | Error _ -> Alcotest.fail "parse w2"

let prop_engine_never_crashes_on_garbage =
  (* Robustness: arbitrary bytes fed to receive must produce a clean error,
     never an exception — malformed traffic is normal input for a datagram
     security layer. *)
  let _, s, _, _, ed = make_engines () in
  QCheck.Test.make ~name:"receive(garbage) returns Error, never raises" ~count:300
    arbitrary_bytes (fun garbage ->
      match Engine.receive_sync ed ~now:60.0 ~src:s ~wire:garbage with
      | Error _ -> true
      | Ok _ -> false (* random bytes passing MAC verification: impossible *)
      | exception _ -> false)

let test_engine_confounder_hides_repetition () =
  (* Section 5.2: "A confounder helps to hide the presence of identical
     datagrams in the same flow."  Two identical payloads in one flow must
     produce different ciphertexts (fresh confounder = fresh IV). *)
  let clock, s, d, es, _ = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let send () =
    Result.get_ok
      (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"IDENTICAL DATA")
  in
  let w1 = send () and w2 = send () in
  let hdr = Header.size in
  let body w = String.sub w hdr (String.length w - hdr) in
  check Alcotest.bool "same flow, same plaintext, different ciphertext" true
    (body w1 <> body w2)

let prop_engine_random_interleaving =
  (* State-machine fuzz: random interleavings of sends on several flows,
     in-window replays, tampered copies and time jumps.  Invariants: a
     fresh untampered wire always verifies to its own payload; a tampered
     one never does; nothing ever raises. *)
  let _, s, d, es, ed = make_engines () in
  let now = ref 1000.0 in
  QCheck.Test.make ~name:"random op interleaving keeps invariants" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_bound 3) (int_bound 3) (int_bound 100)))
    (fun ops ->
      let last_wire = ref None in
      List.for_all
        (fun (op, flow, dt) ->
          now := !now +. float_of_int dt;
          let attrs =
            Fam.attrs ~protocol:17 ~src_port:(6000 + flow) ~dst_port:2 ~src:s ~dst:d ()
          in
          match op with
          | 0 | 1 -> (
              (* Send a fresh datagram and verify it. *)
              let payload = Printf.sprintf "flow %d at %.0f" flow !now in
              match Engine.send_sync es ~now:!now ~attrs ~secret:(op = 0) ~payload with
              | Error _ -> false
              | Ok wire -> (
                  last_wire := Some wire;
                  match Engine.receive_sync ed ~now:!now ~src:s ~wire with
                  | Ok acc -> acc.Engine.payload = payload
                  | Error _ -> false))
          | 2 -> (
              (* Replay the last wire: inside the window it may be
                 accepted (paper-conceded) or stale — never a crash, and
                 never a MAC failure. *)
              match !last_wire with
              | None -> true
              | Some wire -> (
                  match Engine.receive_sync ed ~now:!now ~src:s ~wire with
                  | Ok _ | Error (Engine.Stale _) -> true
                  | Error Engine.Duplicate -> true
                  | Error _ -> false))
          | _ -> (
              (* Tampered copy of the last wire must be rejected. *)
              match !last_wire with
              | None -> true
              | Some wire -> (
                  let b = Bytes.of_string wire in
                  let pos = dt mod String.length wire in
                  Bytes.set b pos (Char.chr (Char.code wire.[pos] lxor 0x80));
                  let wire' = Bytes.to_string b in
                  if wire' = wire then true
                  else
                    match Engine.receive_sync ed ~now:!now ~src:s ~wire:wire' with
                    | Error _ -> true
                    | Ok _ -> false)))
        ops)

let test_engine_wire_overhead () =
  let clock, s, d, es, _ = make_engines () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let payload = String.make 100 'p' in
  let wire =
    Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload)
  in
  check Alcotest.bool "within declared overhead" true
    (String.length wire <= String.length payload + Engine.wire_overhead es);
  check Alcotest.bool "at least header" true
    (String.length wire >= String.length payload + Header.size)

let () =
  Alcotest.run "fbs"
    [
      ( "sfl",
        [
          Alcotest.test_case "uniqueness" `Quick test_sfl_unique;
          Alcotest.test_case "randomized start" `Quick test_sfl_randomized_start;
        ] );
      ("suite", [ Alcotest.test_case "registry" `Quick test_suite_registry ]);
      ( "armor",
        [
          qtest prop_armor_body_len;
        ] );
      ( "header",
        [
          Alcotest.test_case "unknown suite" `Quick test_header_unknown_suite;
          Alcotest.test_case "confounder IV + size" `Quick test_header_confounder_iv;
          Alcotest.test_case "every prefix length" `Quick test_header_every_prefix;
          qtest prop_header_roundtrip;
          qtest prop_header_truncation;
          qtest prop_header_fuzz_no_exception;
          qtest prop_header_decode_canonical;
        ] );
      ( "replay",
        [
          Alcotest.test_case "window" `Quick test_replay_window;
          Alcotest.test_case "strict duplicates" `Quick test_replay_strict_duplicates;
          Alcotest.test_case "strict gc" `Quick test_replay_strict_gc;
          Alcotest.test_case "clock skew boundaries" `Quick test_replay_clock_skew;
          Alcotest.test_case "duplicate after eviction" `Quick
            test_replay_duplicate_after_eviction;
          Alcotest.test_case "minutes encoding" `Quick test_minutes_encoding;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basic" `Quick test_cache_basic;
          Alcotest.test_case "peek silent" `Quick test_cache_peek_silent;
          Alcotest.test_case "direct-mapped conflict" `Quick
            test_cache_direct_mapped_conflict;
          Alcotest.test_case "LRU within set" `Quick test_cache_assoc_lru;
          Alcotest.test_case "miss classification" `Quick test_cache_miss_classification;
          Alcotest.test_case "occupancy + clear" `Quick test_cache_occupancy_clear;
          Alcotest.test_case "classifier memory per key" `Quick
            test_cache_classifier_memory;
          Alcotest.test_case "replacement policies" `Quick
            test_cache_replacement_policies;
          qtest prop_cache_find_after_insert;
          qtest prop_fully_associative_no_conflicts;
          qtest prop_cache_cold_bounded_by_distinct;
          qtest prop_cache_classification_matches_reference;
          qtest prop_cache_seen_set_matches_reference;
          qtest prop_cache_flow_keys_match_reference;
          qtest prop_flow_key_fingerprints_distinct;
        ] );
      ( "keying",
        [
          Alcotest.test_case "master key symmetric" `Quick test_keying_master_symmetric;
          Alcotest.test_case "caches amortize resolver" `Quick test_keying_caches_resolver;
          Alcotest.test_case "pinned certificate" `Quick test_keying_pinned_certificate;
          Alcotest.test_case "expired certificate" `Quick
            test_keying_rejects_expired_certificate;
          Alcotest.test_case "refetch after expiry" `Quick
            test_keying_refetches_after_expiry;
          Alcotest.test_case "unknown principal" `Quick test_keying_unknown_principal;
          Alcotest.test_case "wrong subject" `Quick test_keying_wrong_subject;
          Alcotest.test_case "coalesces concurrent fetches" `Quick test_keying_coalesces;
          Alcotest.test_case "flow key derivation" `Quick test_flow_key_derivation;
          qtest prop_flow_key_matches_definition;
        ] );
      ( "fam",
        [
          Alcotest.test_case "same tuple, same flow" `Quick test_five_tuple_same_flow;
          Alcotest.test_case "distinct tuples" `Quick test_five_tuple_distinct_tuples;
          Alcotest.test_case "threshold expiry" `Quick test_five_tuple_threshold_expiry;
          Alcotest.test_case "collision (footnote 11)" `Quick test_five_tuple_collision;
          Alcotest.test_case "rekey by bytes" `Quick test_five_tuple_rekey_bytes;
          Alcotest.test_case "rekey by lifetime" `Quick test_five_tuple_rekey_life;
          Alcotest.test_case "sweeper" `Quick test_five_tuple_sweeper;
          Alcotest.test_case "app-tag policy" `Quick test_app_policy;
          Alcotest.test_case "fam stats" `Quick test_fam_stats;
          qtest prop_five_tuple_matches_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "roundtrip all suites" `Quick
            test_engine_roundtrips_all_suites;
          Alcotest.test_case "key-schedule cache" `Quick
            test_engine_keysched_cache;
          Alcotest.test_case "MAC midstate cache + eviction" `Quick
            test_engine_macmid_cache;
          Alcotest.test_case "midstate seal byte-equal to prefix MAC" `Quick
            test_engine_midstate_seal_byte_equal;
          Alcotest.test_case "batched seal byte-equal to scalar seal" `Quick
            batch_differential;
          Alcotest.test_case "one-pass, pair and inline seals give one wire" `Quick
            test_one_pass_wires;
          Alcotest.test_case "batch pairing + inline bypass" `Quick
            test_engine_batch_pairing;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
            prop_batch_pairing;
          Alcotest.test_case "a resumed seal never parks" `Quick
            test_engine_batch_resumed_seal_inline;
          Alcotest.test_case "ciphertext hides plaintext" `Quick
            test_engine_ciphertext_hides_plaintext;
          Alcotest.test_case "replay window" `Quick test_engine_replay_window;
          Alcotest.test_case "stale verdict span carries the clocks" `Quick
            test_engine_stale_span_detail;
          Alcotest.test_case "strict replay" `Quick test_engine_strict_replay;
          Alcotest.test_case "strict replay: corrupted copy first" `Quick
            test_engine_strict_replay_corrupt_first;
          Alcotest.test_case "refused cold copy is not a recovery" `Quick
            test_engine_refused_cold_copy_not_recovery;
          Alcotest.test_case "forged-sfl flood keeps the real flow's RFKC entry"
            `Quick test_engine_forged_sfl_flood;
          qtest prop_engine_delivers_once;
          Alcotest.test_case "spoofed source" `Quick test_engine_wrong_source_rejected;
          Alcotest.test_case "cross-flow splice" `Quick
            test_engine_cross_flow_splice_rejected;
          Alcotest.test_case "caches amortize" `Quick test_engine_caches_amortize;
          Alcotest.test_case "flow key recovery counted" `Quick
            test_engine_flow_key_recovery;
          Alcotest.test_case "derive span recovered flag" `Quick
            test_engine_derive_recovered_flag;
          Alcotest.test_case "forged sfls: MAC drops, bounded RFKC" `Quick
            test_engine_forged_sfls_bounded;
          Alcotest.test_case "garbage wire" `Quick test_engine_header_garbage;
          Alcotest.test_case "suite mismatch refused" `Quick test_engine_suite_mismatch;
          Alcotest.test_case "old suite ids refused in the header" `Quick
            test_engine_old_suite_ids_refused;
          Alcotest.test_case "every cause concludes once" `Quick
            test_engine_every_cause_concludes_once;
          Alcotest.test_case "async send" `Quick test_engine_async_send;
          Alcotest.test_case "async receive" `Quick test_engine_async_receive;
          Alcotest.test_case "cold flow derives its key once" `Quick
            test_engine_cold_flow_derives_once;
          Alcotest.test_case "confounder hides repetition" `Quick
            test_engine_confounder_hides_repetition;
          Alcotest.test_case "wire overhead bound" `Quick test_engine_wire_overhead;
          Alcotest.test_case "no PFS by design (Section 6.1)" `Quick
            test_no_pfs_by_design;
          Alcotest.test_case "flow key isolation (Section 6.1)" `Quick
            test_flow_key_isolation;
          qtest prop_engine_tamper_rejected;
          qtest prop_engine_never_crashes_on_garbage;
          qtest prop_engine_random_interleaving;
        ] );
    ]
