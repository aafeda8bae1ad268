(* Differential property suite for the zero-copy slice datapath.

   Every slice-based hot-path API is checked byte-for-byte against its
   retained string-based reference on fuzzed offsets and lengths:
   [Slice] laws vs [String.sub]; [Hash.digest_slices] vs its string
   flavour; [Des] sub-range CBC vs whole-string CBC;
   [Header.decode_view] vs [decode]; and the engine's zero-copy seal/receive vs
   the pre-refactor reference datapath ([Fbsr_oracles.Reference]) —
   including empty and MTU-sized payloads, cross-acceptance in both
   directions, and GC-measured bounds on the datapath's allocation. *)

open Fbsr_util

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t
let hex = Fbsr_util.Hex.encode
let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')

(* A fuzzed (base, off, len) triple with valid bounds and nonempty base. *)
let arbitrary_view =
  QCheck.make
    ~print:(fun (s, off, len) -> Printf.sprintf "(%s, %d, %d)" (hex s) off len)
    QCheck.Gen.(
      arbitrary_bytes.QCheck.gen >>= fun s ->
      let n = String.length s in
      int_bound n >>= fun off ->
      int_bound (n - off) >>= fun len -> return (s, off, len))

(* --- Slice laws vs String.sub --- *)

let prop_slice_vs_string_sub =
  QCheck.Test.make ~name:"Slice.v/to_string = String.sub" ~count:500 arbitrary_view
    (fun (s, off, len) ->
      Slice.to_string (Slice.v ~off ~len s) = String.sub s off len)

let prop_slice_sub_composes =
  QCheck.Test.make ~name:"Slice.sub composes like nested String.sub" ~count:500
    QCheck.(pair arbitrary_view (pair small_nat small_nat))
    (fun ((s, off, len), (p, l)) ->
      let p = if len = 0 then 0 else p mod (len + 1) in
      let l = if len - p = 0 then 0 else l mod (len - p + 1) in
      Slice.to_string (Slice.sub (Slice.v ~off ~len s) ~pos:p ~len:l)
      = String.sub s (off + p) l)

let prop_slice_get =
  QCheck.Test.make ~name:"Slice.get = base lookup" ~count:500 arbitrary_view
    (fun (s, off, len) ->
      let t = Slice.v ~off ~len s in
      List.for_all (fun i -> Slice.get t i = s.[off + i]) (List.init len Fun.id))

let prop_slice_equal =
  QCheck.Test.make ~name:"Slice.equal = string equality of views" ~count:500
    (QCheck.pair arbitrary_view arbitrary_view)
    (fun ((s1, o1, l1), (s2, o2, l2)) ->
      Slice.equal (Slice.v ~off:o1 ~len:l1 s1) (Slice.v ~off:o2 ~len:l2 s2)
      = (String.sub s1 o1 l1 = String.sub s2 o2 l2))

let test_slice_zero_copy_fast_path () =
  (* Whole-base views materialize to the base itself — physical equality. *)
  let s = "some wire datagram" in
  check Alcotest.bool "to_string returns base" true
    (Slice.to_string (Slice.of_string s) == s);
  check Alcotest.bool "partial views copy" false
    (Slice.to_string (Slice.v ~off:1 s) == s)

let test_slice_bounds () =
  let raises f = try ignore (f ()) ; false with Invalid_argument _ -> true in
  check Alcotest.bool "off out of range" true (raises (fun () -> Slice.v ~off:4 "abc"));
  check Alcotest.bool "len out of range" true
    (raises (fun () -> Slice.v ~off:2 ~len:2 "abc"));
  check Alcotest.bool "negative len" true (raises (fun () -> Slice.v ~len:(-1) "abc"));
  check Alcotest.bool "sub out of range" true
    (raises (fun () -> Slice.sub (Slice.of_string "abc") ~pos:1 ~len:3))

let prop_slice_append =
  QCheck.Test.make ~name:"Slice.append = Byte_writer.bytes of view" ~count:300
    arbitrary_view
    (fun (s, off, len) ->
      let w = Byte_writer.create () in
      Slice.append w (Slice.v ~off ~len s);
      Byte_writer.contents w = String.sub s off len)

(* --- Byte_writer finalize/reserve laws --- *)

let test_writer_finalize_steals () =
  (* Exact-capacity fill: finalize must equal contents and reset the
     writer; a partial fill must fall back to a copy. *)
  let w = Byte_writer.create ~capacity:4 () in
  Byte_writer.u32_int w 0xdeadbeef;
  let s = Byte_writer.finalize w in
  check Alcotest.string "stolen buffer bytes" "deadbeef" (hex s);
  check Alcotest.int "writer reset" 0 (Byte_writer.length w);
  Byte_writer.u8 w 0x42;
  check Alcotest.string "writer usable after steal" "42" (hex (Byte_writer.contents w));
  check Alcotest.string "stolen string unaffected" "deadbeef" (hex s)

let test_writer_reserve () =
  let w = Byte_writer.create ~capacity:8 () in
  Byte_writer.u16 w 0xaabb;
  let buf, pos = Byte_writer.reserve w 2 in
  Bytes.set buf pos 'x';
  Bytes.set buf (pos + 1) 'y';
  Byte_writer.u8 w 0xcc;
  check Alcotest.string "reserve writes in place" "aabb7879cc"
    (hex (Byte_writer.contents w))

(* --- Hash/Mac slice flavours vs string flavours --- *)

(* Split a string into slices at fuzzed cut points, through a padded base
   so nonzero offsets are exercised. *)
let slices_of_string ~cuts s =
  let base = "\xff\xee" ^ s ^ "\xdd" in
  let n = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let bounds = (0 :: cuts) @ [ n ] in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.filter_map
    (fun (a, b) -> if b > a then Some (Slice.v ~off:(2 + a) ~len:(b - a) base) else None)
    (pairs bounds)

let prop_digest_slices =
  QCheck.Test.make ~name:"Hash.digest_slices = digest of concat" ~count:300
    QCheck.(pair arbitrary_bytes (list small_nat))
    (fun (s, cuts) ->
      let parts = slices_of_string ~cuts s in
      Fbsr_crypto.Hash.digest_slices Fbsr_crypto.Hash.md5 parts
      = Fbsr_crypto.Md5.digest s
      && Fbsr_crypto.Hash.digest_slices Fbsr_crypto.Hash.sha1 parts
         = Fbsr_crypto.Sha1.digest s)

(* --- DES sub-range CBC vs whole-string CBC --- *)

let des_key = Fbsr_crypto.Des.of_string "\x01\x23\x45\x67\x89\xab\xcd\xef"
let iv8 = "initvect"

let prop_des_cbc_into =
  QCheck.Test.make ~name:"Des.encrypt_cbc_into = encrypt_cbc of sub" ~count:300
    arbitrary_view
    (fun (s, off, len) ->
      let expect = Fbsr_crypto.Des.encrypt_cbc ~iv:iv8 des_key (String.sub s off len) in
      let out_len = Fbsr_crypto.Des.padded_length len in
      let dst = Bytes.make (out_len + 6) '\xcc' in
      let n =
        Fbsr_crypto.Des.encrypt_cbc_into ~iv:iv8 des_key ~src:s ~src_pos:off
          ~src_len:len ~dst ~dst_pos:3
      in
      n = out_len
      && Bytes.sub_string dst 3 n = expect
      (* surrounding bytes untouched *)
      && Bytes.sub_string dst 0 3 = "\xcc\xcc\xcc"
      && Bytes.sub_string dst (3 + n) 3 = "\xcc\xcc\xcc")

let prop_des_cbc_sub_roundtrip =
  QCheck.Test.make ~name:"Des.decrypt_cbc_sub inverts encrypt_cbc_into" ~count:300
    arbitrary_view
    (fun (s, off, len) ->
      let ct = Fbsr_crypto.Des.encrypt_cbc ~iv:iv8 des_key (String.sub s off len) in
      let padded = "\x11" ^ ct ^ "\x22\x33" in
      Fbsr_crypto.Des.decrypt_cbc_sub ~iv:iv8 des_key ~src:padded ~pos:1
        ~len:(String.length ct)
      = String.sub s off len)

let test_des_cbc_sub_corrupt_padding () =
  (* Corrupt final-block padding must raise, exactly like unpad. *)
  let ct = Fbsr_crypto.Des.encrypt_cbc ~iv:iv8 des_key "hello" in
  let bad = Bytes.of_string ct in
  let last = Bytes.length bad - 1 in
  Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 0xff));
  match
    Fbsr_crypto.Des.decrypt_cbc_sub ~iv:iv8 des_key ~src:(Bytes.to_string bad) ~pos:0
      ~len:(Bytes.length bad)
  with
  | (_ : string) -> Alcotest.fail "corrupt padding accepted"
  | exception Invalid_argument _ -> ()

(* --- Ct slice comparison --- *)

let prop_ct_equal_slice =
  QCheck.Test.make ~name:"Ct.equal_slice = string equality" ~count:300
    (QCheck.pair arbitrary_view arbitrary_view)
    (fun ((s1, o1, l1), (s2, o2, l2)) ->
      Fbsr_crypto.Ct.equal_slice (Slice.v ~off:o1 ~len:l1 s1)
        (Slice.v ~off:o2 ~len:l2 s2)
      = (String.sub s1 o1 l1 = String.sub s2 o2 l2))

(* --- Header: decode_view vs decode, encode_into vs encode --- *)

(* [Suite.t] carries hash closures, so polymorphic compare is out —
   compare headers field by field, suites by id. *)
let header_eq (a : Fbsr_fbs.Header.t) (b : Fbsr_fbs.Header.t) =
  a.Fbsr_fbs.Header.sfl = b.Fbsr_fbs.Header.sfl
  && a.Fbsr_fbs.Header.suite.Fbsr_fbs.Suite.id = b.Fbsr_fbs.Header.suite.Fbsr_fbs.Suite.id
  && a.Fbsr_fbs.Header.secret = b.Fbsr_fbs.Header.secret
  && a.Fbsr_fbs.Header.confounder = b.Fbsr_fbs.Header.confounder
  && a.Fbsr_fbs.Header.timestamp = b.Fbsr_fbs.Header.timestamp
  && a.Fbsr_fbs.Header.mac = b.Fbsr_fbs.Header.mac

let suite_of_idx i =
  List.nth Fbsr_fbs.Suite.all (i mod List.length Fbsr_fbs.Suite.all)

let arbitrary_header_and_body =
  QCheck.make
    ~print:(fun ((i, secret, conf, ts), body) ->
      Printf.sprintf "(suite#%d secret=%b conf=%#x ts=%d body=%s)" i secret conf ts
        (hex body))
    QCheck.Gen.(
      pair
        (quad (int_bound 1) bool (int_bound 0xffffff) (int_bound 0xffffff))
        arbitrary_bytes.QCheck.gen)

let prop_header_views =
  QCheck.Test.make ~name:"Header.decode_view = decode; encode_into = encode"
    ~count:500 arbitrary_header_and_body
    (fun ((i, secret, confounder, timestamp), body) ->
      let suite = suite_of_idx i in
      let mac =
        String.init Fbsr_fbs.Header.mac_length (fun j -> Char.chr (j * 7 land 0xff))
      in
      let h =
        {
          Fbsr_fbs.Header.sfl = Fbsr_fbs.Sfl.of_int64 0x1122334455667788L;
          suite;
          secret;
          confounder;
          timestamp;
          mac;
        }
      in
      let encoded = Fbsr_fbs.Header.encode h in
      let wire = encoded ^ body in
      (* Decode through a nonzero offset to exercise view bounds. *)
      let padded = "\x99\x88" ^ wire in
      let via_view =
        Fbsr_fbs.Header.decode_view
          (Slice.v ~off:2 ~len:(String.length wire) padded)
      in
      let via_string = Fbsr_fbs.Header.decode wire in
      match (via_view, via_string) with
      | Ok v, Ok (h', body') ->
          header_eq (Fbsr_fbs.Header.to_header v) h'
          && header_eq h' h
          && Slice.to_string v.Fbsr_fbs.Header.v_body = body'
          && body' = body
          && Slice.to_string v.Fbsr_fbs.Header.v_mac = mac
      | _, _ -> false)

let test_header_view_errors_agree () =
  (* Truncation, unknown suites and reserved flags must error identically
     through both decoders. *)
  let h =
    {
      Fbsr_fbs.Header.sfl = Fbsr_fbs.Sfl.of_int64 7L;
      suite = Fbsr_fbs.Suite.paper_md5_des;
      secret = true;
      confounder = 0xabcd;
      timestamp = 42;
      mac = String.make 16 'm';
    }
  in
  let wire = Fbsr_fbs.Header.encode h ^ "payload" in
  let mutations =
    [
      String.sub wire 0 3; (* truncated fixed fields *)
      String.sub wire 0 20; (* truncated MAC *)
      (let b = Bytes.of_string wire in
       Bytes.set b 8 '\x07';
       Bytes.to_string b);
      (* unknown suite *)
      (let b = Bytes.of_string wire in
       Bytes.set b 9 '\x83';
       Bytes.to_string b);
      (* reserved flag bits *)
    ]
  in
  List.iter
    (fun m ->
      let via_view = Fbsr_fbs.Header.decode_view (Slice.of_string m) in
      let via_string = Fbsr_fbs.Header.decode m in
      match (via_view, via_string) with
      | Error a, Error b ->
          check Alcotest.bool "same error" true (a = b)
      | _ -> Alcotest.fail "decoders disagree on malformed input")
    mutations

let test_mac_prelude_bytes () =
  (* write_mac_prelude = auth_bytes | confounder_bytes | timestamp_bytes. *)
  List.iter
    (fun (suite, secret, confounder, timestamp) ->
      let h =
        {
          Fbsr_fbs.Header.sfl = Fbsr_fbs.Sfl.of_int64 1L;
          suite;
          secret;
          confounder;
          timestamp;
          mac = String.make Fbsr_fbs.Header.mac_length '\000';
        }
      in
      let scratch = Bytes.create Fbsr_fbs.Header.mac_prelude_size in
      Fbsr_fbs.Header.write_mac_prelude scratch ~suite ~secret ~confounder ~timestamp;
      check Alcotest.string "prelude bytes"
        (hex
           (Fbsr_oracles.Reference.auth_bytes h
           ^ Fbsr_oracles.Reference.confounder_bytes h
           ^ Fbsr_oracles.Reference.timestamp_bytes h))
        (hex (Bytes.to_string scratch));
      let iv = Bytes.create 8 in
      Fbsr_fbs.Header.write_confounder_iv iv ~confounder;
      check Alcotest.string "iv bytes"
        (hex (Fbsr_oracles.Reference.confounder_iv h))
        (hex (Bytes.to_string iv)))
    [
      (Fbsr_fbs.Suite.paper_md5_des, true, 0xdeadbeef, 12345);
      (Fbsr_fbs.Suite.nop, false, 0, 0);
      (Fbsr_fbs.Suite.paper_md5_des, false, 0xffffffff, 0xffffffff);
    ]

(* --- Engine vs the string-based reference datapath --- *)

(* The flow key the sender sealed under: its TFKC entry, read without
   touching the cache's statistics. *)
let flow_key_of pair sfl =
  let open Fbsr_experiments.Fixture in
  match
    Fbsr_fbs.Cache.peek
      (Fbsr_fbs.Engine.tfkc pair.sender)
      (Fbsr_fbs.Engine.Key.make ~local:pair.src ~sfl ~peer:pair.dst)
  with
  | Some e -> Fbsr_fbs.Engine.flow_entry_key e
  | None -> Alcotest.fail "flow key not in the sender's TFKC"

(* One engine send cross-checked against the reference seal/open on the
   same (confounder, timestamp, flow key), plus cross-acceptance of a
   reference-sealed wire by the engine. *)
let differential_roundtrip ~suite ~secret ~payload () =
  let p = Fbsr_experiments.Fixture.engine_pair ~suite () in
  let attrs =
    Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:1000 ~dst_port:2000
      ~src:p.Fbsr_experiments.Fixture.src ~dst:p.Fbsr_experiments.Fixture.dst ()
  in
  let wire =
    match
      Fbsr_fbs.Engine.send_sync p.Fbsr_experiments.Fixture.sender ~now:60.0 ~attrs
        ~secret ~payload
    with
    | Ok w -> w
    | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e
  in
  let h =
    match Fbsr_fbs.Header.decode wire with
    | Ok (h, _) -> h
    | Error _ -> Alcotest.fail "engine wire undecodable"
  in
  let flow_key = flow_key_of p h.Fbsr_fbs.Header.sfl in
  (* 1. Byte-identical wires on identical inputs. *)
  let ref_wire =
    Fbsr_oracles.Reference.seal ~suite ~flow_key ~sfl:h.Fbsr_fbs.Header.sfl
      ~secret ~confounder:h.Fbsr_fbs.Header.confounder
      ~timestamp:h.Fbsr_fbs.Header.timestamp ~payload ()
  in
  check Alcotest.string "engine wire = reference wire" (hex ref_wire) (hex wire);
  (* 2. The reference opens the engine's wire. *)
  (match Fbsr_oracles.Reference.open_ ~suite ~flow_key ~wire () with
  | Ok (_, pt) -> check Alcotest.string "reference opens engine wire" (hex payload) (hex pt)
  | Error _ -> Alcotest.fail "reference rejected engine wire");
  (* 3. The engine accepts the engine's wire (and hence the reference's,
     which is the same bytes). *)
  let got = ref None in
  Fbsr_fbs.Engine.receive p.Fbsr_experiments.Fixture.receiver ~now:60.0
    ~src:p.Fbsr_experiments.Fixture.src ~wire
    (fun r -> got := Some r);
  match !got with
  | Some (Ok acc) ->
      check Alcotest.string "engine accepts" (hex payload)
        (hex acc.Fbsr_fbs.Engine.payload);
      check Alcotest.bool "accepted header matches" true
        (header_eq acc.Fbsr_fbs.Engine.header h)
  | Some (Error e) -> Alcotest.failf "engine receive: %a" Fbsr_fbs.Engine.pp_error e
  | None -> Alcotest.fail "receive did not complete synchronously"

let test_differential_all_suites () =
  List.iter
    (fun suite ->
      List.iter
        (fun secret ->
          List.iter
            (fun payload -> differential_roundtrip ~suite ~secret ~payload ())
            [ ""; "x"; "exactly8"; String.make 1460 'p' ])
        [ true; false ])
    Fbsr_fbs.Suite.all

let prop_differential_fuzzed_paper_suite =
  QCheck.Test.make ~name:"engine = reference on fuzzed payloads (paper suite)"
    ~count:60
    QCheck.(pair arbitrary_bytes bool)
    (fun (payload, secret) ->
      differential_roundtrip ~suite:Fbsr_fbs.Suite.paper_md5_des ~secret ~payload ();
      true)

(* Minor-heap words [f] allocates. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_words what ~bound w =
  if w > bound then Alcotest.failf "%s: %.1f minor words, want <= %.0f" what w bound

let test_datapath_accounting () =
  (* The GC is the allocation measure: one warm 1000-byte round trip,
     send + receive on both engines, in minor words.  The bounds were set
     about 1.25x over the then measured 556 (secret) and 533 (auth-only)
     words, lowered by the 4 words the two flow-key cache hits stopped
     allocating, and lowered again by the 36 words the two MD5 finals
     stopped allocating (a padding buffer and boxed byte counts: measured
     554 and 531 before, 518 and 495 since); the wire and the delivered
     payload are about 260 of them.  The secret row was lowered again to
     1.25x over 513, measured once its seal ran as one job with the MAC
     inside (518 before), and both rows to 1.25x over 503 and 493, once
     the seal job stopped copying its chain's source and the MAC
     midstate became the bare MD5 context (513 and 495 before).  A
     closure per DES block, say, adds about 1 000 words and fails
     them. *)
  let payload = String.make 1000 'q' in
  List.iter
    (fun (suite, secret, bound) ->
      let p, attrs, _ = Fbsr_experiments.Fixture.warm_pair ~suite ~secret () in
      let es = p.Fbsr_experiments.Fixture.sender
      and ed = p.Fbsr_experiments.Fixture.receiver in
      let round_trip () =
        match Fbsr_fbs.Engine.send_sync es ~now:60.0 ~attrs ~secret ~payload with
        | Ok wire -> (
            match
              Fbsr_fbs.Engine.receive_sync ed ~now:60.0
                ~src:p.Fbsr_experiments.Fixture.src ~wire
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "receive: %a" Fbsr_fbs.Engine.pp_error e)
        | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e
      in
      round_trip ();
      check_words
        (Printf.sprintf "%s %s round trip" (Fbsr_fbs.Suite.name suite)
           (if secret then "secret" else "auth-only"))
        ~bound (minor_words_of round_trip))
    [
      (Fbsr_fbs.Suite.paper_md5_des, true, 629.);
      (Fbsr_fbs.Suite.paper_md5_des, false, 617.);
    ]

let test_datapath_accounting_batched () =
  (* The batched seal path allocates no more than the inline one:
     deferring the body encryption into the cross-flow batch adds no
     buffer, the wire delivered from the batch is encrypted in place.
     Measured over a round of sends and a flush, after a warm-up round,
     at an even job count (every seal paired on the two-chain kernel) and
     an odd one (the last job runs alone at the flush).  The bound was set
     about 1.25x over the then measured 577 words per round trip,
     lowered by the 4 words the flow-key cache hits stopped allocating,
     lowered again by the 36 the two MD5 finals stopped allocating
     (measured 575 at 7 flows before, 539 since), and lowered to 1.25x
     over 524 once a parked seal carried its MAC inputs instead of
     computing the MAC at seal time (measured 539.4 and 523.4 at 7 flows,
     539.1 and 523.1 at 8), and to 1.25x over 513 once the job stopped
     copying its chain's source (measured 512.6 at 7 flows, 512.1 at
     8). *)
  List.iter
    (fun flows ->
      let p, attrs = Fbsr_experiments.Fixture.warm_flows ~flows () in
      let es = p.Fbsr_experiments.Fixture.sender
      and ed = p.Fbsr_experiments.Fixture.receiver in
      let batch = Fbsr_fbs.Engine.Batch.create es in
      let payload = String.make 1000 'q' in
      let wires = Array.make flows "" in
      let round () =
        for i = 0 to flows - 1 do
          Fbsr_fbs.Engine.send ~batch es ~now:60.0 ~attrs:attrs.(i) ~secret:true
            ~payload (function
            | Ok w -> wires.(i) <- w
            | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e)
        done;
        ignore (Fbsr_fbs.Engine.Batch.flush batch);
        Array.iter
          (fun wire ->
            match
              Fbsr_fbs.Engine.receive_sync ed ~now:60.0
                ~src:p.Fbsr_experiments.Fixture.src ~wire
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "receive: %a" Fbsr_fbs.Engine.pp_error e)
          wires
      in
      round ();
      check_words
        (Printf.sprintf "batched round trips (%d flows)" flows)
        ~bound:(641. *. float_of_int flows)
        (minor_words_of round))
    [ 7; 8 ]

let () =
  Alcotest.run "slice"
    [
      ( "slice-laws",
        [
          qtest prop_slice_vs_string_sub;
          qtest prop_slice_sub_composes;
          qtest prop_slice_get;
          qtest prop_slice_equal;
          qtest prop_slice_append;
          Alcotest.test_case "zero-copy fast path" `Quick test_slice_zero_copy_fast_path;
          Alcotest.test_case "bounds checks" `Quick test_slice_bounds;
        ] );
      ( "byte-writer",
        [
          Alcotest.test_case "finalize steals exact-capacity buffer" `Quick
            test_writer_finalize_steals;
          Alcotest.test_case "reserve writes in place" `Quick test_writer_reserve;
        ] );
      ( "crypto-slices",
        [
          qtest prop_digest_slices;
          qtest prop_des_cbc_into;
          qtest prop_des_cbc_sub_roundtrip;
          Alcotest.test_case "corrupt padding rejected" `Quick
            test_des_cbc_sub_corrupt_padding;
          qtest prop_ct_equal_slice;
        ] );
      ( "header-views",
        [
          qtest prop_header_views;
          Alcotest.test_case "malformed inputs: errors agree" `Quick
            test_header_view_errors_agree;
          Alcotest.test_case "mac prelude / iv scratch writers" `Quick
            test_mac_prelude_bytes;
        ] );
      ( "engine-vs-reference",
        [
          Alcotest.test_case "all suites x secret x payload sizes" `Slow
            test_differential_all_suites;
          qtest prop_differential_fuzzed_paper_suite;
          Alcotest.test_case "datapath allocation accounting" `Quick
            test_datapath_accounting;
          Alcotest.test_case "batched path keeps the allocation invariant" `Quick
            test_datapath_accounting_batched;
        ] );
    ]
