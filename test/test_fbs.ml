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
  check Alcotest.bool "unknown id" true (Suite.of_id 99 = None);
  check Alcotest.bool "nop flag" true (Suite.is_nop Suite.nop);
  check Alcotest.bool "paper suite not nop" false (Suite.is_nop Suite.paper_md5_des)

(* Every suite has a registered armor; the registry round-trips by id,
   ids are unique, and each armor's wire-size claims are consistent with
   the header layout. *)
let test_armor_registry () =
  Armors.ensure ();
  let armors = Armor.all () in
  check Alcotest.int "one armor per suite" (List.length Suite.all)
    (List.length armors);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let module A = (val a : Armor.S) in
      let id = A.suite.Suite.id in
      if Hashtbl.mem seen id then Alcotest.fail "duplicate armor suite id";
      Hashtbl.replace seen id ();
      (match Armor.of_id id with
      | None -> Alcotest.fail "registered armor not found by id"
      | Some a' ->
          let module A' = (val a' : Armor.S) in
          check Alcotest.int "of_id roundtrip" id A'.suite.Suite.id);
      (match Suite.of_id id with
      | None -> Alcotest.fail "armor registered for unknown suite"
      | Some s ->
          check Alcotest.int "suite mac_length agrees" s.Suite.mac_length
            A.suite.Suite.mac_length;
          check Alcotest.int "header size = fixed + mac"
            (Header.fixed_size + s.Suite.mac_length)
            (Header.size_for_suite A.suite));
      check Alcotest.bool "auth prefix sane" true
        (A.auth_prefix_len >= 0 && A.auth_prefix_len <= 64);
      check Alcotest.bool "nop armors do not batch" true
        ((not (Suite.is_nop A.suite)) || A.batch = None))
    armors;
  List.iter
    (fun s ->
      let module A = (val Armor.of_suite s : Armor.S) in
      check Alcotest.int "of_suite matches" s.Suite.id A.suite.Suite.id)
    Suite.all

(* Body sizing laws: plaintext bodies are length-preserving; sealed
   secret bodies never shrink and never outgrow [max_body_growth]. *)
let prop_armor_body_len =
  QCheck.Test.make ~count:200 ~name:"armor sealed_body_len bounds"
    QCheck.(pair (int_range 0 9000) (int_range 0 6))
    (fun (len, i) ->
      Armors.ensure ();
      let armors = Array.of_list (Armor.all ()) in
      let module A = (val armors.(i mod Array.length armors) : Armor.S) in
      let plain = A.sealed_body_len ~secret:false len in
      let sealed = A.sealed_body_len ~secret:true len in
      plain = len && sealed >= len && sealed <= len + A.max_body_growth)

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

let arb_header = QCheck.make ~print:(fun h -> Fmt.str "%a" Header.pp h) gen_header

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
  let header_len = Header.size h in
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
    (Header.confounder_iv h);
  check Alcotest.int "size" (Header.fixed_size + 16) (Header.size h)

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

let int_cache ?(assoc = 1) ~sets () : (int, string) Cache.t =
  Cache.create ~assoc ~sets ~hash:(fun k -> Fbsr_util.Crc32.update_int32 0 k)
    ~equal:Int.equal ()

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
      ~equal:Int.equal ()
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
      ~equal:Int.equal ()
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
          ~equal:Int.equal ()
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
          ~equal:Int.equal ()
      in
      List.iter
        (fun k ->
          match Cache.find c k with
          | Some _ -> ()
          | None -> Cache.insert c k k)
        keys;
      let distinct = List.length (List.sort_uniq compare keys) in
      (Cache.stats c).Cache.misses_cold = distinct)

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
   seen-set grown on first miss and kept across [clear], per-set LRU
   replacement).  Random find/insert/invalidate/clear workloads must
   produce identical statistics, and the counters must add up: every
   find is exactly one of hit/cold/capacity/conflict.  [clear] is one op
   in 21, so the shadow still fills and evicts between clears. *)
let prop_cache_classification_matches_reference =
  QCheck.Test.make ~name:"3-C classification = brute-force reference" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 300) (pair (int_bound 20) (int_bound 40)))
    (fun ops ->
      let sets = 4 and assoc = 2 in
      let cache = Cache.create ~assoc ~sets ~hash:(fun k -> k) ~equal:Int.equal () in
      (* Reference state. *)
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
      let base key = key mod sets * assoc in
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
         else if not (Hashtbl.mem seen key) then begin
           Hashtbl.replace seen key ();
           incr cold
         end
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
        (fun (op, key) ->
          if op < 10 then begin
            ref_find key;
            ignore (Cache.find cache key)
          end
          else if op < 17 then begin
            ref_insert key;
            Cache.insert cache key (string_of_int key)
          end
          else if op < 20 then begin
            ref_invalidate key;
            Cache.invalidate cache key
          end
          else begin
            ref_clear ();
            Cache.clear cache
          end)
        ops;
      let s = Cache.stats cache in
      s.Cache.hits = !hits
      && s.Cache.misses_cold = !cold
      && s.Cache.misses_capacity = !cap
      && s.Cache.misses_conflict = !conf
      && s.Cache.evictions = !evictions
      (* The invariant the classification must preserve: every find is
         exactly one of the four outcomes. *)
      && s.Cache.hits + Cache.total_misses s = !finds)

let test_cache_occupancy_clear () =
  let c = int_cache ~sets:16 () in
  for i = 1 to 10 do
    Cache.insert c i "x"
  done;
  check Alcotest.bool "occupancy bounded" true (Cache.occupancy c <= 10);
  Cache.clear c;
  check Alcotest.int "cleared" 0 (Cache.occupancy c)

(* The record of every key that ever missed is a set of 8-byte
   fingerprints, not of keys: 200k distinct flow-key-shaped keys through
   a 128-set cache cost at most 4 words each (one slot at load between
   1/4 and 1/2), where a hash table of the keys themselves costs 12 or
   more (tuple, boxed int64, bucket). *)
let test_cache_classifier_memory () =
  let c : (int64 * string * string, int) Cache.t =
    Cache.create ~sets:128 ~hash:Hashtbl.hash ~equal:( = ) ()
  in
  let before = Obj.reachable_words (Obj.repr c) in
  let n = 200_000 in
  for i = 1 to n do
    let key = (Int64.of_int i, "10.0.0.1", "10.0.0.2") in
    match Cache.find c key with Some _ -> () | None -> Cache.insert c key i
  done;
  let per_key = float_of_int (Obj.reachable_words (Obj.repr c) - before) /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "%.2f words per key <= 4" per_key) true (per_key <= 4.0);
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
  let k1 = Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl ~master ~src ~dst in
  check Alcotest.int "digest size" 16 (String.length k1);
  (* Deterministic. *)
  check Alcotest.string "deterministic" k1
    (Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl ~master ~src ~dst);
  (* Sensitive to every input. *)
  let differs k2 = check Alcotest.bool "differs" true (k1 <> k2) in
  differs (Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl:(Sfl.of_int64 43L) ~master ~src ~dst);
  differs (Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl ~master:"other master!!" ~src ~dst);
  differs (Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl ~master ~src:dst ~dst:src)

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
  match
    Cache.peek (Engine.tfkc es)
      (Sfl.to_int64 sfl, Principal.to_string dst, Principal.to_string src)
  with
  | Some e -> Engine.flow_entry_key e
  | None -> Alcotest.fail "flow key not in the sender's TFKC"

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
    [
      Suite.paper_md5_des; Suite.hmac_md5_des; Suite.sha1_des; Suite.des_mac_des;
      Suite.md5_des3; Suite.nop;
    ]

let test_engine_des3_key_expansion () =
  (* The engine expands a short flow key to 24 bytes of 3DES material with
     a writer (no [flow_key ^ Md5.digest flow_key] concatenation).  Check
     it against the definitional form: a wire sealed with a key built the
     old way must be byte-identical, for both the full-digest-tail case
     (16-byte flow key) and a synthetic long-key truncation. *)
  let clock, s, d, es, ed = make_engines ~suite:Suite.md5_des3 () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let payload = "triple-DES key expansion" in
  (match Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload with
  | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
  | Ok wire -> (
      let h =
        match Header.decode wire with
        | Ok (h, _) -> h
        | Error _ -> Alcotest.fail "wire undecodable"
      in
      let flow_key = sender_flow_key es ~sfl:h.Header.sfl ~src:s ~dst:d in
      check Alcotest.bool "flow key shorter than 24 bytes" true
        (String.length flow_key < 24);
      (* Old-style key material: concatenate, truncate, parity-adjust. *)
      let material = flow_key ^ Fbsr_crypto.Md5.digest flow_key in
      let key =
        Fbsr_crypto.Des3.of_string
          (Fbsr_crypto.Des.adjust_parity (String.sub material 0 24))
      in
      let iv = Header.confounder_iv h in
      let reference_body = Fbsr_crypto.Des3.encrypt_cbc ~iv key payload in
      let body_off = String.length wire - String.length reference_body in
      check Alcotest.string "engine body = old-style-key body"
        (Fbsr_util.Hex.encode reference_body)
        (Fbsr_util.Hex.encode (String.sub wire body_off (String.length reference_body)));
      match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
      | Ok acc -> check Alcotest.string "roundtrip" payload acc.Engine.payload
      | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e));
  (* Long-key truncation: >= 24 bytes of flow key must use only the first
     24 (digest tail unused).  Exercised directly through the cipher. *)
  let long_key = String.init 32 (fun i -> Char.chr (0x20 + i)) in
  let old_material = long_key ^ Fbsr_crypto.Md5.digest long_key in
  check Alcotest.string "long-key truncation ignores digest"
    (String.sub old_material 0 24)
    (String.sub long_key 0 24)

let test_engine_keysched_cache () =
  (* Cipher/MAC key schedules are expanded once per flow entry and reused
     for every subsequent datagram; eviction (here: an explicit clear)
     drops the schedules with the entry and costs one fresh expansion. *)
  let clock, s, d, es, ed = make_engines ~suite:Suite.des_mac_des () in
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
        Header.auth_bytes h ^ Header.confounder_bytes h ^ Header.timestamp_bytes h
      in
      let reference =
        Fbsr_crypto.Mac.compute Fbsr_crypto.Hash.md5 ~key:flow_key
          [ prelude; payload ]
      in
      let mac_len = String.length h.Header.mac in
      check Alcotest.string "wire MAC = pre-midstate prefix MAC"
        (Fbsr_util.Hex.encode (String.sub reference 0 mac_len))
        (Fbsr_util.Hex.encode h.Header.mac)

(* --- Batched ≡ inline: one table-driven differential ---

   The same datagrams go through [send]/[receive] with no batch, and
   through a batch at capacity 1 (every enqueue flushes) and capacity 63
   (everything parks until an explicit flush), at kernel thresholds 1
   (bitsliced) and 24 (per-datagram fallback), for every registered
   armor.  Each row runs in its own identically seeded world, so the
   confounder streams agree and a row must reproduce the inline row's
   wires, verdicts, payload bytes, counters and span terminals exactly.
   Armors without a batch kernel for the direction (3DES, SHA1-CTR, NOP)
   and non-secret datagrams must never park. *)

type batch_row = Inline | Batched of { capacity : int; threshold : int }

(* (capacity, threshold) of every batched row. *)
let batched_rows =
  List.concat_map (fun capacity -> List.map (fun threshold -> (capacity, threshold)) [ 1; 24 ])
    [ 1; 63 ]

let batch_row_name = function
  | Inline -> "inline"
  | Batched { capacity; threshold } -> Printf.sprintf "cap %d t%d" capacity threshold

(* Two datagrams on each of six flows, secret and not, empty to multi-block. *)
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
          (true, "short");
          (false, "");
        ])
    [ "r0"; "r1" ]

(* Every counter except the open lane's rx_batch_* pair, which counts the
   batching itself rather than datapath behaviour. *)
let datapath_counters (c : Engine.counters) =
  [
    c.Engine.sends; c.Engine.receives; c.Engine.accepted;
    c.Engine.flow_key_computations; c.Engine.flow_key_recoveries;
    c.Engine.macs_computed; c.Engine.encryptions; c.Engine.decryptions;
  ]
  @ List.map (Engine.drop_count c) Engine.causes
  @ [
      c.Engine.bytes_copied; c.Engine.datapath_allocs; c.Engine.keysched_hits;
      c.Engine.keysched_misses; c.Engine.mac_midstate_hits;
      c.Engine.mac_midstate_misses;
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
  lane_traffic : int;
      (* datagrams that went through the lane, capacity flushes included:
         batched seal spans (seal lane), rx_batch_deferred (open lane) *)
  kernel : (int * int) option; (* the flush's (bitsliced, scalar) split *)
  wires : string list; (* send direction only *)
  verdicts : string list;
  counters : int list; (* the engine under test *)
  rx_pair : int * int; (* its rx_batch_deferred, rx_batch_flushes *)
  spans : (string * string) list;
}

(* Offer [n] datagrams through [call ?batch i k], check the parked ones
   are undelivered, drain the batch by a flush, and return the parked
   count, the flush's kernel split and every delivered result. *)
let offer_through row engine n call =
  let batch =
    match row with
    | Inline -> None
    | Batched { capacity; threshold } ->
        Some (Engine.Batch.create ~capacity ~threshold engine)
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
        let split = Engine.Batch.flush b in
        check Alcotest.int "drained" 0 (Engine.Batch.pending b);
        check Alcotest.(pair int int) "an empty queue flushes no blocks" (0, 0)
          (Engine.Batch.flush b);
        Some split
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

let rx_pair (c : Engine.counters) =
  (c.Engine.rx_batch_deferred, c.Engine.rx_batch_flushes)

(* Seals that went through the seal lane: their span carries the
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
  let lane_traffic = batched_seals spans in
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
  { parked; lane_traffic; kernel; wires; verdicts; counters = datapath_counters c;
    rx_pair = rx_pair c; spans = span_terminals spans }

let run_open_row ~suite row =
  let spans, clock, s, es, ed, attrs = batch_world ~suite in
  let sealed =
    List.map
      (fun (flow, secret, payload) ->
        match Engine.send_sync es ~now:!clock ~attrs:(attrs flow) ~secret ~payload with
        | Ok w -> w
        | Error e -> Alcotest.failf "send: %a" Engine.pp_error e)
      batch_frames
  in
  (* Plus two faulty copies of the multi-block secret wire: a flipped
     last byte (CBC tail garbled: padding refusal) and a truncation to
     half (no whole number of cipher blocks).  Deferring an open checks
     the length and decrypts the padding block up front, so neither
     parks. *)
  let long = List.nth sealed 3 in
  let flipped =
    let b = Bytes.of_string long in
    let n = Bytes.length b - 1 in
    Bytes.set b n (Char.chr (Char.code (Bytes.get b n) lxor 0x10));
    Bytes.to_string b
  in
  let truncated = String.sub long 0 (String.length long / 2) in
  let wires = Array.of_list (sealed @ [ flipped; truncated ]) in
  Fbsr_util.Span.clear spans;
  let now = !clock in
  let call ?batch i k = Engine.receive ?batch ed ~now ~src:s ~wire:wires.(i) k in
  let parked, kernel, results = offer_through row ed (Array.length wires) call in
  let c = Engine.counters ed in
  { parked; lane_traffic = c.Engine.rx_batch_deferred; kernel; wires = [];
    verdicts = List.map verdict_str results; counters = datapath_counters c;
    rx_pair = rx_pair c; spans = span_terminals spans }

let batch_differential ~lane () =
  Armors.ensure ();
  let secret_frames =
    List.length (List.filter (fun (_, secret, _) -> secret) batch_frames)
  in
  List.iter
    (fun armor ->
      let module A = (val armor : Armor.S) in
      let suite = A.suite in
      (* How many datagrams every batched row must send through the lane:
         each secret one, when the armor has a kernel for the direction. *)
      let expected, run =
        match lane with
        | `Seal -> ((if A.batch <> None then secret_frames else 0), run_seal_row)
        | `Open ->
            ((if A.encrypts && A.batch_rx <> None then secret_frames else 0), run_open_row)
      in
      let inline = run ~suite Inline in
      List.iter
        (fun (capacity, threshold) ->
          let row = Batched { capacity; threshold } in
          let r = run ~suite row in
          let what fmt =
            Printf.ksprintf
              (fun m ->
                Printf.sprintf "%s %s: %s" (Suite.name suite) (batch_row_name row) m)
              fmt
          in
          check (Alcotest.list Alcotest.string) (what "wires") inline.wires r.wires;
          check (Alcotest.list Alcotest.string) (what "verdicts and payloads")
            inline.verdicts r.verdicts;
          check (Alcotest.list Alcotest.int) (what "counters") inline.counters r.counters;
          check
            (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
            (what "span terminals") inline.spans r.spans;
          check Alcotest.int (what "inline row used no lane") 0 inline.lane_traffic;
          check Alcotest.int (what "exactly the secret datagrams took the lane")
            expected r.lane_traffic;
          (* Capacity 1 flushes on every enqueue; 63 holds the lot. *)
          check Alcotest.int (what "parked until the flush")
            (if capacity = 1 then 0 else expected)
            r.parked;
          check Alcotest.(pair int int) (what "open-lane counters")
            (match lane with
            | `Seal -> (0, 0)
            | `Open when capacity = 1 -> (expected, expected)
            | `Open -> (expected, if expected > 0 then 1 else 0))
            r.rx_pair;
          match (r.kernel, lane) with
          | None, _ -> ()
          | Some (bs, sc), `Seal when threshold = 1 ->
              check Alcotest.bool (what "threshold 1: bitsliced blocks ran") true (bs > 0);
              check Alcotest.int (what "threshold 1: no scalar spill") 0 sc
          | Some (bs, sc), `Seal ->
              (* [expected] < 24 jobs: the per-datagram fallback runs. *)
              check Alcotest.int (what "below threshold: no bitsliced blocks") 0 bs;
              check Alcotest.bool (what "below threshold: scalar blocks ran") true (sc > 0)
          | Some (bs, _), `Open when threshold = 1 ->
              check Alcotest.bool (what "threshold 1: bitsliced blocks ran") true (bs > 0)
          | Some _, `Open ->
              (* The decrypt kernel lane-slices long ciphertexts even below
                 the job threshold: its split is not pinned there. *)
              ())
        batched_rows)
    (Armor.all ())

let test_engine_batch_capacity_autoflush () =
  (* Filling the seal lane to capacity flushes without an explicit call;
     a non-deferrable datagram (here: not secret) bypasses the queue and
     delivers inline. *)
  let clock, s, d, es, ed = make_engines ~suite:Suite.paper_md5_des () in
  let batch = Engine.Batch.create ~capacity:4 es in
  let delivered = ref 0 in
  for i = 0 to 3 do
    Engine.send ~batch es ~now:!clock
      ~attrs:(Fam.attrs ~protocol:17 ~src_port:(3000 + i) ~dst_port:2 ~src:s ~dst:d ())
      ~secret:true ~payload:"autoflush" (function
      | Ok _ -> incr delivered
      | Error e -> Alcotest.failf "send: %a" Engine.pp_error e)
  done;
  check Alcotest.int "capacity reached: everything delivered" 4 !delivered;
  check Alcotest.int "queue empty after autoflush" 0 (Engine.Batch.pending batch);
  let inline = ref false in
  Engine.send ~batch es ~now:!clock
    ~attrs:(Fam.attrs ~protocol:17 ~src_port:3999 ~dst_port:2 ~src:s ~dst:d ())
    ~secret:false ~payload:"inline" (function
    | Ok _ -> inline := true
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e);
  check Alcotest.bool "non-secret delivers inline" true !inline;
  check Alcotest.int "non-secret never queues" 0 (Engine.Batch.pending batch);
  let c = Engine.counters es in
  check Alcotest.(pair int int) "seal lane leaves the open-lane counters idle"
    (0, 0) (c.Engine.rx_batch_deferred, c.Engine.rx_batch_flushes);
  (* A batch belongs to the engine it was created for. *)
  Alcotest.check_raises "another engine's batch refused"
    (Invalid_argument "Engine: batch bound to another engine") (fun () ->
      Engine.receive ~batch ed ~now:!clock ~src:s ~wire:"" (fun _ ->
          Alcotest.fail "a foreign batch reached the datapath"))

let test_engine_batch_rx_capacity_autoflush () =
  (* Filling the open lane to capacity flushes without an explicit call;
     a non-deferrable frame (here: not secret) bypasses the queue and
     delivers inline. *)
  let clock, s, d, es, ed = make_engines ~suite:Suite.paper_md5_des () in
  let wire_for i secret =
    let attrs =
      Fam.attrs ~protocol:17 ~src_port:(5000 + i) ~dst_port:2 ~src:s ~dst:d ()
    in
    match
      Engine.send_sync es ~now:!clock ~attrs ~secret
        ~payload:(Printf.sprintf "rx autoflush %d" i)
    with
    | Ok w -> w
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
  in
  let batch = Engine.Batch.create ~capacity:4 ed in
  let delivered = ref 0 in
  for i = 0 to 3 do
    Engine.receive ~batch ed ~now:!clock ~src:s ~wire:(wire_for i true) (function
      | Ok acc ->
          check Alcotest.string "payload roundtrips"
            (Printf.sprintf "rx autoflush %d" i)
            acc.Engine.payload;
          incr delivered
      | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e)
  done;
  check Alcotest.int "capacity reached: everything delivered" 4 !delivered;
  check Alcotest.int "queue empty after autoflush" 0 (Engine.Batch.pending batch);
  let inline = ref false in
  Engine.receive ~batch ed ~now:!clock ~src:s ~wire:(wire_for 9 false) (function
    | Ok _ -> inline := true
    | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e);
  check Alcotest.bool "non-secret delivers inline" true !inline;
  check Alcotest.int "non-secret never queues" 0 (Engine.Batch.pending batch);
  let c = Engine.counters ed in
  check Alcotest.int "deferrals counted" 4 c.Engine.rx_batch_deferred;
  check Alcotest.int "one flush counted" 1 c.Engine.rx_batch_flushes

(* The send-lane mirror of the stack's lone cold-flow regression: a
   secret send whose keying suspends enqueues into the seal lane from the
   resumed keying continuation — a later event, after [send] returned —
   so the park hook must fire from that enqueue, and a flush must then
   deliver exactly one result. *)
let test_engine_batch_seal_lane_late_park () =
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
  let parks = ref 0 in
  Engine.Batch.set_on_park batch (fun () -> incr parks);
  let results = ref [] in
  let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  Engine.send ~batch es ~now:60.0 ~attrs ~secret:true ~payload:"cold flow" (fun r ->
      results := r :: !results);
  check Alcotest.int "suspended on the fetch: nothing parked yet" 0
    (Engine.Batch.pending batch);
  check Alcotest.int "no park before the fetch completes" 0 !parks;
  (match !fetch with
  | Some (peer, k) ->
      k (Ok (Option.get (Fbsr_cert.Authority.lookup ca (Principal.to_string peer))))
  | None -> Alcotest.fail "resolver not consulted");
  check Alcotest.int "enqueued from the resumed continuation" 1
    (Engine.Batch.pending batch);
  check Alcotest.int "park hook fired in that event" 1 !parks;
  check Alcotest.int "not delivered before a flush" 0 (List.length !results);
  ignore (Engine.Batch.flush batch : int * int);
  (match !results with
  | [ Ok wire ] -> (
      match Header.decode wire with
      | Ok (h, _) -> check Alcotest.bool "sealed secret" true h.Header.secret
      | Error _ -> Alcotest.fail "delivered wire undecodable")
  | [ Error e ] -> Alcotest.failf "send: %a" Engine.pp_error e
  | rs -> Alcotest.failf "%d results delivered, want exactly 1" (List.length rs));
  check Alcotest.int "nothing left to flush" 0 (Engine.Batch.pending batch);
  check Alcotest.int "still exactly one result" 1 (List.length !results)

let test_engine_batch_rx_replay_at_enqueue () =
  (* Under strict replay the prologue's probe runs at enqueue but records
     nothing; the replay window takes a datagram only at its MAC verify,
     which for a parked frame happens at the flush.  So a duplicate of a
     still-queued frame parks too and is refused at the flush, right after
     the first copy delivers (enqueue order), while a duplicate of an
     already-delivered frame is refused synchronously at enqueue —
     exactly where inline [receive] refuses it. *)
  let clock, s, d, es, ed = make_engines ~strict_replay:true () in
  let attrs = Fam.attrs ~protocol:17 ~src_port:7000 ~dst_port:2 ~src:s ~dst:d () in
  let wire =
    match
      Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload:"replayed"
    with
    | Ok w -> w
    | Error e -> Alcotest.failf "send: %a" Engine.pp_error e
  in
  let batch = Engine.Batch.create ed in
  let got = ref [] in
  let offer () =
    Engine.receive ~batch ed ~now:!clock ~src:s ~wire (fun r ->
        got := verdict_str r :: !got)
  in
  offer ();
  offer ();
  check Alcotest.int "both copies queued" 2 (Engine.Batch.pending batch);
  check Alcotest.int "no verdict before the flush" 0 (List.length !got);
  ignore (Engine.Batch.flush batch : int * int);
  check (Alcotest.list Alcotest.string) "first delivers, second refused at flush"
    [ "ok:replayed"; "err:duplicate datagram" ]
    (List.rev !got);
  got := [];
  offer ();
  check (Alcotest.list Alcotest.string) "a delivered frame's copy refused at enqueue"
    [ "err:duplicate datagram" ] !got;
  check Alcotest.int "that copy never queues" 0 (Engine.Batch.pending batch)

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
   and a flipped body byte in the middle (decrypts, then fails the MAC).
   Checked inline and through a batch's open lane, where the corrupted
   copy is still parked when the intact one arrives. *)
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
  let run ~batched =
    let clock, s, d, es, ed = make_engines ~strict_replay:true () in
    let attrs = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
    (* Warm the flow on both sides. *)
    ignore (Engine.receive_sync ed ~now:!clock ~src:s ~wire:(seal es ~now:!clock ~attrs));
    let wire = seal es ~now:!clock ~attrs in
    let n = String.length wire in
    let batch = if batched then Some (Engine.Batch.create ed) else None in
    let got = ref [] in
    List.iter
      (fun w ->
        Engine.receive ?batch ed ~now:!clock ~src:s ~wire:w (fun r ->
            got := verdict_str r :: !got))
      [ corrupt wire (n - 1); corrupt wire (n - 40); wire; wire ];
    Option.iter (fun b -> ignore (Engine.Batch.flush b : int * int)) batch;
    let st = Replay.stats (Engine.replay ed) in
    (List.rev !got, st.Replay.accepted, st.Replay.rejected_duplicate)
  in
  List.iter
    (fun batched ->
      let what = if batched then "batched" else "inline" in
      let verdicts, accepted, duplicates = run ~batched in
      check
        (Alcotest.list Alcotest.string)
        (what ^ ": corrupted copies refused, intact one delivered once")
        [ "err:decryption failed"; "err:MAC verification failed"; "ok:" ^ payload;
          "err:duplicate datagram" ]
        verdicts;
      check Alcotest.int (what ^ ": accepted counts verified datagrams") 2 accepted;
      check Alcotest.int (what ^ ": one duplicate") 1 duplicates)
    [ false; true ]

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
  let hdr = Engine.header_overhead es in
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
      let name = Engine.cause_name cause in
      match Engine.receive_sync ed ~now ~src ~wire with
      | Ok _ -> Alcotest.failf "%s datagram accepted" name
      | Error e ->
          check Alcotest.string ("error of the " ^ name ^ " drop") name
            (Engine.cause_name (Engine.cause_of_error e)))
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
      let name = Engine.cause_name cause in
      check Alcotest.int ("one " ^ name ^ " drop") 1 (Engine.drop_count c cause);
      check Alcotest.int ("one " ^ name ^ " terminal") 1
        (terminals "engine.receive" (Fbsr_util.Span.drop_outcome name)))
    Engine.causes;
  check Alcotest.int "one delivery" 1 c.Engine.accepted;
  check Alcotest.int "one delivered terminal" 1 (terminals "engine.receive" "delivered");
  check Alcotest.int "every datagram received concluded once"
    c.Engine.receives
    (List.length
       (List.filter
          (fun (sp : Fbsr_util.Span.span) -> sp.Fbsr_util.Span.stage = "engine.receive")
          (Fbsr_util.Span.spans spans)));
  check Alcotest.int "drops attributed to flows: all but the header drop"
    (Engine.drops c - 1)
    (Fbsr_util.Sketch.total flowstats.Flowstats.drops);
  (* Send side: the keying failure has its terminal, and no counter. *)
  let to_stranger = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:stranger () in
  (match Engine.send_sync es ~now:!clock ~attrs:to_stranger ~secret:true ~payload:"x" with
  | Error (Engine.Keying_error _) -> ()
  | _ -> Alcotest.fail "send to an unknown principal did not fail in keying");
  check Alcotest.int "send-side keying terminal" 1
    (terminals "engine.send" (Fbsr_util.Span.drop_outcome "keying"));
  check Alcotest.int "send-side keying bumps no drop counter" 0
    (Engine.drops (Engine.counters es))

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
        Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl:header.Header.sfl ~master
          ~src:s ~dst:d
      in
      let des_key =
        Fbsr_crypto.Des.of_string
          (Fbsr_crypto.Des.adjust_parity (String.sub flow_key 0 8))
      in
      let plaintext =
        Fbsr_crypto.Des.decrypt_cbc ~iv:(Header.confounder_iv header) des_key body
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
  let k1 = Keying.flow_key ~hash:Fbsr_crypto.Hash.md5 ~sfl:sfl1 ~master ~src:s ~dst:d in
  let des1 =
    Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity (String.sub k1 0 8))
  in
  (match Header.decode w1 with
  | Ok (h1, body1) ->
      check Alcotest.string "compromised key reads its own flow" "flow one data"
        (Fbsr_crypto.Des.decrypt_cbc ~iv:(Header.confounder_iv h1) des1 body1)
  | Error _ -> Alcotest.fail "parse w1");
  match Header.decode w2 with
  | Ok (h2, body2) -> (
      (* The same key against flow 2 must NOT yield the plaintext. *)
      match Fbsr_crypto.Des.decrypt_cbc ~iv:(Header.confounder_iv h2) des1 body2 with
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
  let hdr = Engine.header_overhead es in
  let body w = String.sub w hdr (String.length w - hdr) in
  check Alcotest.bool "same flow, same plaintext, different ciphertext" true
    (body w1 <> body w2)

let test_engine_inbound_flow_view () =
  (* The receiver's passive demultiplexing view: per-flow packet/byte
     counts keyed by (sfl, peer). *)
  let clock, s, d, es, ed = make_engines () in
  let a1 = Fam.attrs ~protocol:17 ~src_port:1 ~dst_port:2 ~src:s ~dst:d () in
  let a2 = Fam.attrs ~protocol:17 ~src_port:9 ~dst_port:2 ~src:s ~dst:d () in
  let deliver attrs payload =
    let wire =
      Result.get_ok (Engine.send_sync es ~now:!clock ~attrs ~secret:true ~payload)
    in
    match Engine.receive_sync ed ~now:!clock ~src:s ~wire with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "receive: %a" Engine.pp_error e
  in
  deliver a1 "11111";
  deliver a1 "222";
  deliver a2 "x";
  let flows = Engine.inbound_flows ed in
  check Alcotest.int "two inbound flows" 2 (List.length flows);
  let total_packets =
    List.fold_left (fun acc (_, _, f) -> acc + f.Engine.packets) 0 flows
  in
  let total_bytes = List.fold_left (fun acc (_, _, f) -> acc + f.Engine.bytes) 0 flows in
  check Alcotest.int "packets tracked" 3 total_packets;
  check Alcotest.int "bytes tracked" 9 total_bytes;
  List.iter
    (fun (_, peer, _) ->
      check Alcotest.string "peer recorded" (Principal.to_string s)
        (Principal.to_string peer))
    flows

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
    (String.length wire >= String.length payload + Engine.header_overhead es)

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
          Alcotest.test_case "registry" `Quick test_armor_registry;
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
          Alcotest.test_case "3des key expansion" `Quick
            test_engine_des3_key_expansion;
          Alcotest.test_case "key-schedule cache" `Quick
            test_engine_keysched_cache;
          Alcotest.test_case "MAC midstate cache + eviction" `Quick
            test_engine_macmid_cache;
          Alcotest.test_case "midstate seal byte-equal to prefix MAC" `Quick
            test_engine_midstate_seal_byte_equal;
          Alcotest.test_case "batched seal byte-equal to scalar seal" `Quick
            (batch_differential ~lane:`Seal);
          Alcotest.test_case "batch capacity autoflush + inline bypass" `Quick
            test_engine_batch_capacity_autoflush;
          Alcotest.test_case "batched receive = scalar receive (suites x kernels)"
            `Quick (batch_differential ~lane:`Open);
          Alcotest.test_case "rx batch capacity autoflush + inline bypass" `Quick
            test_engine_batch_rx_capacity_autoflush;
          Alcotest.test_case "seal-lane park from a resumed keying continuation"
            `Quick test_engine_batch_seal_lane_late_park;
          Alcotest.test_case "rx batch replay refused at enqueue" `Quick
            test_engine_batch_rx_replay_at_enqueue;
          Alcotest.test_case "ciphertext hides plaintext" `Quick
            test_engine_ciphertext_hides_plaintext;
          Alcotest.test_case "replay window" `Quick test_engine_replay_window;
          Alcotest.test_case "stale verdict span carries the clocks" `Quick
            test_engine_stale_span_detail;
          Alcotest.test_case "strict replay" `Quick test_engine_strict_replay;
          Alcotest.test_case "strict replay: corrupted copy first" `Quick
            test_engine_strict_replay_corrupt_first;
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
          Alcotest.test_case "every cause concludes once" `Quick
            test_engine_every_cause_concludes_once;
          Alcotest.test_case "async send" `Quick test_engine_async_send;
          Alcotest.test_case "async receive" `Quick test_engine_async_receive;
          Alcotest.test_case "confounder hides repetition" `Quick
            test_engine_confounder_hides_repetition;
          Alcotest.test_case "inbound flow view" `Quick test_engine_inbound_flow_view;
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
