(* Differential property suite for the zero-copy slice datapath.

   Every slice-based hot-path API is checked byte-for-byte against its
   retained string-based reference on fuzzed offsets and lengths:
   [Slice] laws vs [String.sub]; [Hash.digest_slices] and
   [Mac.compute_slices] vs their string flavours; [Des]/[Des3]
   sub-range CBC vs whole-string CBC; [Header.decode_view]/[encode_into]
   vs [decode]/[encode]; and the engine's one-allocation seal/receive vs
   the pre-refactor reference datapath ([Fbsr_oracles.Reference]) —
   including empty and MTU-sized payloads, cross-acceptance in both
   directions, and the datapath allocation accounting itself. *)

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

let mac_key = String.make 16 '\x5a'

let prop_mac_compute_slices =
  QCheck.Test.make ~name:"Mac.compute_slices = Mac.compute (all algorithms)"
    ~count:300
    QCheck.(pair arbitrary_bytes (list small_nat))
    (fun (s, cuts) ->
      let parts = slices_of_string ~cuts s in
      let strings = List.map Slice.to_string parts in
      List.for_all
        (fun algorithm ->
          Fbsr_crypto.Mac.compute_slices ~algorithm Fbsr_crypto.Hash.md5 ~key:mac_key
            parts
          = Fbsr_crypto.Mac.compute ~algorithm Fbsr_crypto.Hash.md5 ~key:mac_key
              strings)
        [ Fbsr_crypto.Mac.Prefix; Fbsr_crypto.Mac.Hmac; Fbsr_crypto.Mac.Des_cbc_mac ])

let prop_mac_verify_slice =
  QCheck.Test.make ~name:"Mac.verify_slice accepts truncated prefixes" ~count:200
    QCheck.(pair arbitrary_bytes (int_range 1 16))
    (fun (s, n) ->
      let parts = [ Slice.of_string s ] in
      let mac =
        Fbsr_crypto.Mac.compute Fbsr_crypto.Hash.md5 ~key:mac_key [ s ]
      in
      let expected = Slice.v ~len:n mac in
      Fbsr_crypto.Mac.verify_slice Fbsr_crypto.Hash.md5 ~key:mac_key parts ~expected
      (* The wrong-key rejection is checked against the full-length MAC:
         a short truncation (n=1 is a single byte) collides with the
         wrong key's MAC with probability 2^-8n, which made this
         property flake roughly once in twenty runs. *)
      && not
           (Fbsr_crypto.Mac.verify_slice Fbsr_crypto.Hash.md5 ~key:"wrongkey!!!!!!!!"
              parts ~expected:(Slice.of_string mac)))

(* --- DES/3DES sub-range CBC vs whole-string CBC --- *)

let des_key = Fbsr_crypto.Des.of_string "\x01\x23\x45\x67\x89\xab\xcd\xef"
let des3_key = Fbsr_crypto.Des3.of_string (String.init 24 (fun i -> Char.chr (i + 1)))
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

let prop_des3_cbc_into =
  QCheck.Test.make ~name:"Des3 sub-range CBC = whole-string CBC" ~count:200
    arbitrary_view
    (fun (s, off, len) ->
      let pt = String.sub s off len in
      let expect = Fbsr_crypto.Des3.encrypt_cbc ~iv:iv8 des3_key pt in
      let out_len = Fbsr_crypto.Des.padded_length len in
      let dst = Bytes.create out_len in
      let n =
        Fbsr_crypto.Des3.encrypt_cbc_into ~iv:iv8 des3_key ~src:s ~src_pos:off
          ~src_len:len ~dst ~dst_pos:0
      in
      n = out_len
      && Bytes.to_string dst = expect
      && Fbsr_crypto.Des3.decrypt_cbc_sub ~iv:iv8 des3_key ~src:(Bytes.to_string dst)
           ~pos:0 ~len:n
         = pt)

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
        (quad (int_bound 5) bool (int_bound 0xffffff) (int_bound 0xffffff))
        arbitrary_bytes.QCheck.gen)

let prop_header_views =
  QCheck.Test.make ~name:"Header.decode_view = decode; encode_into = encode"
    ~count:500 arbitrary_header_and_body
    (fun ((i, secret, confounder, timestamp), body) ->
      let suite = suite_of_idx i in
      let mac = String.init suite.Fbsr_fbs.Suite.mac_length (fun j -> Char.chr (j * 7 land 0xff)) in
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
      (* encode_into over a shared writer produces the same bytes. *)
      let w = Byte_writer.create () in
      Byte_writer.bytes w "prefix";
      Fbsr_fbs.Header.encode_into w h;
      let same_encode = Byte_writer.contents w = "prefix" ^ encoded in
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
          same_encode
          && header_eq (Fbsr_fbs.Header.to_header v) h'
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
          mac = String.make suite.Fbsr_fbs.Suite.mac_length '\000';
        }
      in
      let scratch = Bytes.create Fbsr_fbs.Header.mac_prelude_size in
      Fbsr_fbs.Header.write_mac_prelude scratch ~suite ~secret ~confounder ~timestamp;
      check Alcotest.string "prelude bytes"
        (hex
           (Fbsr_fbs.Header.auth_bytes h
           ^ Fbsr_fbs.Header.confounder_bytes h
           ^ Fbsr_fbs.Header.timestamp_bytes h))
        (hex (Bytes.to_string scratch));
      let iv = Bytes.create 8 in
      Fbsr_fbs.Header.write_confounder_iv iv ~confounder;
      check Alcotest.string "iv bytes"
        (hex (Fbsr_fbs.Header.confounder_iv h))
        (hex (Bytes.to_string iv)))
    [
      (Fbsr_fbs.Suite.paper_md5_des, true, 0xdeadbeef, 12345);
      (Fbsr_fbs.Suite.des_mac_des, false, 0, 0);
      (Fbsr_fbs.Suite.sha1_des, true, 0xffffffff, 0xffffffff);
    ]

(* --- Engine vs the string-based reference datapath --- *)

let flow_key_of pair sfl =
  let key = ref "" in
  Fbsr_fbs.Engine.derive_flow_key pair.Fbsr_experiments.Fixture.sender ~sfl
    ~src:pair.Fbsr_experiments.Fixture.src ~dst:pair.Fbsr_experiments.Fixture.dst
    (function
      | Ok k -> key := k
      | Error _ -> Alcotest.fail "flow key derivation failed");
  !key

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

let test_datapath_accounting () =
  (* The headline invariant: a secret CBC round trip is one allocation on
     seal, one on receive, zero extra payload copies. *)
  let p, attrs, _ = Fbsr_experiments.Fixture.warm_pair ~secret:true () in
  let es = p.Fbsr_experiments.Fixture.sender
  and ed = p.Fbsr_experiments.Fixture.receiver in
  let cs = Fbsr_fbs.Engine.counters es and cr = Fbsr_fbs.Engine.counters ed in
  let a0 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
  let c0 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
  let payload = String.make 1000 'q' in
  (match Fbsr_fbs.Engine.send_sync es ~now:60.0 ~attrs ~secret:true ~payload with
  | Ok wire -> (
      match
        Fbsr_fbs.Engine.receive_sync ed ~now:60.0 ~src:p.Fbsr_experiments.Fixture.src
          ~wire
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "receive: %a" Fbsr_fbs.Engine.pp_error e)
  | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e);
  let a1 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
  let c1 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
  check Alcotest.int "2 allocations per secret round trip" 2 (a1 - a0);
  check Alcotest.int "0 bytes copied per secret round trip" 0 (c1 - c0);
  (* Non-secret: the accepted payload is copied out of the wire buffer —
     exactly once. *)
  let p2, attrs2, _ = Fbsr_experiments.Fixture.warm_pair ~secret:false () in
  let es2 = p2.Fbsr_experiments.Fixture.sender
  and ed2 = p2.Fbsr_experiments.Fixture.receiver in
  let cs2 = Fbsr_fbs.Engine.counters es2 and cr2 = Fbsr_fbs.Engine.counters ed2 in
  let a0 = cs2.Fbsr_fbs.Engine.datapath_allocs + cr2.Fbsr_fbs.Engine.datapath_allocs in
  let c0 = cs2.Fbsr_fbs.Engine.bytes_copied + cr2.Fbsr_fbs.Engine.bytes_copied in
  (match Fbsr_fbs.Engine.send_sync es2 ~now:60.0 ~attrs:attrs2 ~secret:false ~payload with
  | Ok wire -> (
      match
        Fbsr_fbs.Engine.receive_sync ed2 ~now:60.0
          ~src:p2.Fbsr_experiments.Fixture.src ~wire
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "receive: %a" Fbsr_fbs.Engine.pp_error e)
  | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e);
  let a1 = cs2.Fbsr_fbs.Engine.datapath_allocs + cr2.Fbsr_fbs.Engine.datapath_allocs in
  let c1 = cs2.Fbsr_fbs.Engine.bytes_copied + cr2.Fbsr_fbs.Engine.bytes_copied in
  check Alcotest.int "2 allocations per auth-only round trip" 2 (a1 - a0);
  check Alcotest.int "payload bytes copied once on accept" (String.length payload)
    (c1 - c0)

let test_datapath_accounting_batched () =
  (* The batched seal path keeps the zero-copy invariant: deferring the
     body encryption into the cross-flow batch adds no buffer and no
     copy — the wire delivered at flush is the same single allocation,
     encrypted in place.  Measured over a full batch so the flush (both
     the scalar and the bitsliced kernel path) is inside the window. *)
  List.iter
    (fun threshold ->
      let flows = 8 in
      let p, attrs = Fbsr_experiments.Fixture.warm_flows ~flows () in
      let es = p.Fbsr_experiments.Fixture.sender
      and ed = p.Fbsr_experiments.Fixture.receiver in
      let batch = Fbsr_fbs.Engine.Batch.create ~threshold es in
      let cs = Fbsr_fbs.Engine.counters es and cr = Fbsr_fbs.Engine.counters ed in
      let a0 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
      let c0 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
      let wires = ref [] in
      for i = 0 to flows - 1 do
        Fbsr_fbs.Engine.send ~batch es ~now:60.0 ~attrs:attrs.(i) ~secret:true
          ~payload:(String.make 1000 'q') (function
          | Ok w -> wires := w :: !wires
          | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e)
      done;
      ignore (Fbsr_fbs.Engine.Batch.flush batch);
      List.iter
        (fun wire ->
          match
            Fbsr_fbs.Engine.receive_sync ed ~now:60.0
              ~src:p.Fbsr_experiments.Fixture.src ~wire
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "receive: %a" Fbsr_fbs.Engine.pp_error e)
        !wires;
      let a1 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
      let c1 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
      check Alcotest.int
        (Printf.sprintf "2 allocations per batched round trip (threshold %d)" threshold)
        (2 * flows) (a1 - a0);
      check Alcotest.int
        (Printf.sprintf "0 bytes copied per batched round trip (threshold %d)" threshold)
        0 (c1 - c0))
    [ 1; 24 ]

let test_datapath_accounting_batched_rx () =
  (* The receive mirror: deferring the body open into a batch keeps
     the round trip at exactly two allocations (wire at seal, plaintext
     at enqueue) and zero extra copies — on both flush kernels. *)
  List.iter
    (fun threshold ->
      let flows = 8 in
      let p, attrs = Fbsr_experiments.Fixture.warm_flows ~flows () in
      let es = p.Fbsr_experiments.Fixture.sender
      and ed = p.Fbsr_experiments.Fixture.receiver in
      let batch = Fbsr_fbs.Engine.Batch.create ~threshold ed in
      let cs = Fbsr_fbs.Engine.counters es and cr = Fbsr_fbs.Engine.counters ed in
      let a0 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
      let c0 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
      for i = 0 to flows - 1 do
        match
          Fbsr_fbs.Engine.send_sync es ~now:60.0 ~attrs:attrs.(i) ~secret:true
            ~payload:(String.make 1000 'q')
        with
        | Ok wire ->
            Fbsr_fbs.Engine.receive ~batch ed ~now:60.0
              ~src:p.Fbsr_experiments.Fixture.src ~wire (function
              | Ok _ -> ()
              | Error e -> Alcotest.failf "receive: %a" Fbsr_fbs.Engine.pp_error e)
        | Error e -> Alcotest.failf "send: %a" Fbsr_fbs.Engine.pp_error e
      done;
      ignore (Fbsr_fbs.Engine.Batch.flush batch);
      let a1 = cs.Fbsr_fbs.Engine.datapath_allocs + cr.Fbsr_fbs.Engine.datapath_allocs in
      let c1 = cs.Fbsr_fbs.Engine.bytes_copied + cr.Fbsr_fbs.Engine.bytes_copied in
      check Alcotest.int
        (Printf.sprintf "2 allocations per batched-rx round trip (threshold %d)"
           threshold)
        (2 * flows) (a1 - a0);
      check Alcotest.int
        (Printf.sprintf "0 bytes copied per batched-rx round trip (threshold %d)"
           threshold)
        0 (c1 - c0))
    [ 1; 24 ]

let test_reference_key_expansion () =
  (* Satellite: the engine's writer-based 3DES key expansion must equal
     the definitional [flow_key ^ Md5.digest flow_key] truncation — the
     wires of the md5_des3 suite prove it end to end. *)
  differential_roundtrip ~suite:Fbsr_fbs.Suite.md5_des3 ~secret:true
    ~payload:"3des key expansion differential" ()

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
          qtest prop_mac_compute_slices;
          qtest prop_mac_verify_slice;
          qtest prop_des_cbc_into;
          qtest prop_des_cbc_sub_roundtrip;
          qtest prop_des3_cbc_into;
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
          Alcotest.test_case "batched receive keeps the allocation invariant"
            `Quick test_datapath_accounting_batched_rx;
          Alcotest.test_case "3des key expansion differential" `Quick
            test_reference_key_expansion;
        ] );
    ]
