(* Tests for the crypto substrate: published known-answer tests (RFC 1321,
   FIPS 180, FIPS 46 KATs, RFC 2202) plus structural properties
   (streaming = one-shot, DES complementation, mode roundtrips, DH
   commutativity, RSA sign/verify). *)

open Fbsr_crypto

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t
let hex = Fbsr_util.Hex.encode
let unhex = Fbsr_util.Hex.decode
let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')

let key8 =
  QCheck.make
    ~print:(fun s -> hex s)
    QCheck.Gen.(map (String.concat "") (list_repeat 8 (map (String.make 1) (char_range '\000' '\255'))))

(* --- MD5 (RFC 1321 appendix A.5) --- *)

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_md5_vectors () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected (Md5.hexdigest input))
    md5_vectors

let prop_md5_streaming =
  QCheck.Test.make ~name:"md5 streaming = one-shot" ~count:200
    QCheck.(pair arbitrary_bytes (int_bound 200))
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Md5.init () in
      Md5.update ctx (String.sub s 0 cut);
      Md5.update ctx (String.sub s cut (String.length s - cut));
      Md5.final ctx = Md5.digest s)

let test_md5_digest_list () =
  check Alcotest.string "digest_list = concat"
    (hex (Md5.digest "onetwothree"))
    (hex (Md5.digest_list [ "one"; "two"; "three" ]))

let test_md5_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundaries. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Md5.init () in
      String.iter (fun c -> Md5.update ctx (String.make 1 c)) s;
      check Alcotest.string (string_of_int n) (hex (Md5.digest s)) (hex (Md5.final ctx)))
    [ 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

(* --- SHA-1 (FIPS 180 examples) --- *)

let test_sha1_vectors () =
  check Alcotest.string "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    (Sha1.hexdigest "");
  check Alcotest.string "abc" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Sha1.hexdigest "abc");
  check Alcotest.string "two-block" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha1_million_a () =
  check Alcotest.string "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hexdigest (String.make 1_000_000 'a'))

let prop_sha1_streaming =
  QCheck.Test.make ~name:"sha1 streaming = one-shot" ~count:200
    QCheck.(pair arbitrary_bytes (int_bound 200))
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Sha1.init () in
      Sha1.update ctx (String.sub s 0 cut);
      Sha1.update ctx (String.sub s cut (String.length s - cut));
      Sha1.final ctx = Sha1.digest s)

(* --- DES block cipher --- *)

let test_des_kat () =
  (* The classic worked example (key 133457799BBCDFF1). *)
  let k = Des.of_string (unhex "133457799bbcdff1") in
  check Alcotest.string "encrypt" "85e813540f0ab405"
    (hex (Des.encrypt_block_bytes k (unhex "0123456789abcdef")));
  check Alcotest.string "decrypt" "0123456789abcdef"
    (hex (Des.decrypt_block_bytes k (unhex "85e813540f0ab405")));
  (* All-zero key/plaintext KAT. *)
  let k0 = Des.of_string (String.make 8 '\000') in
  check Alcotest.string "zero KAT" "8ca64de9c1b123a7"
    (hex (Des.encrypt_block_bytes k0 (String.make 8 '\000')))

let prop_des_roundtrip =
  QCheck.Test.make ~name:"DES block roundtrip" ~count:200 (QCheck.pair key8 key8)
    (fun (key, block) ->
      let k = Des.of_string key in
      Des.decrypt_block_bytes k (Des.encrypt_block_bytes k block) = block)

let prop_des_complementation =
  (* DES(~K, ~P) = ~DES(K, P) — a structural property of the cipher that
     any table transcription error would destroy. *)
  QCheck.Test.make ~name:"DES complementation property" ~count:100
    (QCheck.pair key8 key8) (fun (key, block) ->
      let compl s = String.map (fun c -> Char.chr (lnot (Char.code c) land 0xff)) s in
      let c1 = Des.encrypt_block_bytes (Des.of_string key) block in
      let c2 = Des.encrypt_block_bytes (Des.of_string (compl key)) (compl block) in
      c2 = compl c1)

let test_des_weak_keys () =
  check Alcotest.bool "weak" true (Des.is_weak_key (unhex "0101010101010101"));
  check Alcotest.bool "weak with parity variation" true
    (Des.is_weak_key (unhex "0000000000000000"));
  check Alcotest.bool "not weak" false (Des.is_weak_key (unhex "133457799bbcdff1"));
  Alcotest.check_raises "of_string check_weak" Des.Weak_key (fun () ->
      ignore (Des.of_string ~check_weak:true (unhex "fefefefefefefefe")))

let test_des_parity () =
  let adjusted = Des.adjust_parity (unhex "0000000000000000") in
  check Alcotest.string "odd parity forced" "0101010101010101" (hex adjusted);
  (* Idempotent. *)
  check Alcotest.string "idempotent" (hex adjusted) (hex (Des.adjust_parity adjusted))

let test_des_bad_key_length () =
  Alcotest.check_raises "short key" (Invalid_argument "Des: key must be 8 bytes")
    (fun () -> ignore (Des.of_string "short"))

(* --- FIPS 46-3 / NBS SP 500-20 known-answer tables ---

   These lock the kernel against golden outputs: the variable-plaintext
   table exercises every bit position of the data path (IP, E, S-boxes, P,
   FP), the variable-key table every bit position of the key schedule
   (PC-1, rotations, PC-2).  Each entry is checked in both directions. *)

let des_kat_both name key pt ct =
  let k = Des.of_string (unhex key) in
  check Alcotest.string (name ^ " encrypt") ct
    (hex (Des.encrypt_block_bytes k (unhex pt)));
  check Alcotest.string (name ^ " decrypt") pt
    (hex (Des.decrypt_block_bytes k (unhex ct)))

let test_des_variable_plaintext_kat () =
  List.iter
    (fun (pt, ct) -> des_kat_both ("pt " ^ pt) "0101010101010101" pt ct)
    [
      ("8000000000000000", "95f8a5e5dd31d900");
      ("4000000000000000", "dd7f121ca5015619");
      ("2000000000000000", "2e8653104f3834ea");
      ("1000000000000000", "4bd388ff6cd81d4f");
      ("0800000000000000", "20b9e767b2fb1456");
      ("0400000000000000", "55579380d77138ef");
      ("0200000000000000", "6cc5defaaf04512f");
      ("0100000000000000", "0d9f279ba5d87260");
    ]

let test_des_variable_key_kat () =
  List.iter
    (fun (key, ct) -> des_kat_both ("key " ^ key) key "0000000000000000" ct)
    [
      ("8001010101010101", "95a8d72813daa94d");
      ("4001010101010101", "0eec1487dd8c26d5");
      ("2001010101010101", "7ad16ffb79c45926");
      ("1001010101010101", "d3746294ca6a6cf3");
      ("0801010101010101", "809f5f873c1fd761");
      ("0401010101010101", "c02faffec989d1fc");
      ("0201010101010101", "4615aa1d33e72f10");
      ("0180010101010101", "2055123350c00858");
    ]

let test_des_rivest_chain () =
  (* Rivest's chained self-test ("Testing the DES", 1985): X_{i+1} =
     E_{X_i}(X_i) for even i, D_{X_i}(X_i) for odd i; sixteen iterations
     from X0 = 9474B8E8C73BCA7D must land on the published X16.  One wrong
     bit anywhere in the kernel diverges the chain irrecoverably — the
     Monte-Carlo-lite of the FIPS validation suite. *)
  let x = ref (unhex "9474b8e8c73bca7d") in
  for i = 0 to 15 do
    let k = Des.of_string !x in
    x :=
      (if i mod 2 = 0 then Des.encrypt_block_bytes k !x
       else Des.decrypt_block_bytes k !x)
  done;
  check Alcotest.string "X16" "1b1a2ddb4c642438" (hex !x)

let test_des_mode_kats () =
  (* Mode KATs on the FIPS 81 sample key/IV/plaintext.  The CBC and ECB
     expectations include our PKCS#7 padding block; CFB/OFB are
     length-preserving (their first 8 bytes match the published FIPS 81
     example outputs).  Golden values produced by the KAT-verified seed
     kernel and locked here before the table-driven rewrite. *)
  let k = Des.of_string (unhex "0123456789abcdef") in
  let iv = unhex "1234567890abcdef" in
  let pt = "Now is the time for all " in
  check Alcotest.string "cbc"
    "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f662c16a27e4fcf277"
    (hex (Des.encrypt_cbc ~iv k pt));
  check Alcotest.string "cbc decrypt" pt
    (Des.decrypt_cbc ~iv k
       (unhex "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f662c16a27e4fcf277"));
  let k2 = Des.of_string (unhex "133457799bbcdff1") in
  check Alcotest.string "ecb"
    "aaea30f286270f219cf6359859f826914b1629b43f7863c0fdf2e174492922f8"
    (hex (Des.encrypt_ecb k2 pt));
  check Alcotest.string "cfb" "f3096249c7f46e51a69e839b1a92f78403467133898ea622"
    (hex (Des.encrypt_cfb ~iv k pt));
  check Alcotest.string "ofb" "f3096249c7f46e5135f24a242eeb3d3f3d6d5be3255af8c3"
    (hex (Des.encrypt_ofb ~iv k pt))

let test_des_mc_lite_cbc () =
  (* Chained CBC Monte-Carlo-lite: 1000 iterations of encrypt, feeding the
     first ciphertext block back as data, the last as IV, and key := key
     XOR data — every iteration depends on the full previous state, so a
     single-bit kernel error anywhere in 1000 encryptions diverges the
     final triple.  Golden values locked from the KAT-verified seed
     kernel. *)
  let key = ref (unhex "0123456789abcdef") and data = ref (String.make 8 '\x2a') in
  let iv = ref (unhex "fedcba9876543210") in
  for _ = 1 to 1000 do
    let k = Des.of_string (Des.adjust_parity !key) in
    let ct = Des.encrypt_cbc ~iv:!iv k !data in
    data := String.sub ct 0 8;
    iv := String.sub ct (String.length ct - 8) 8;
    key := String.init 8 (fun i -> Char.chr (Char.code !key.[i] lxor Char.code !data.[i]))
  done;
  check Alcotest.string "key" "7e4bfb45e7447548" (hex !key);
  check Alcotest.string "data" "6cb7ff76be33bbd1" (hex !data);
  check Alcotest.string "iv" "d95154f21859038e" (hex !iv)

let test_des3_kat () =
  (* EDE3 with three distinct keys: block and CBC golden values locked
     from the seed kernel (whose E/D composition is pinned by the single-
     DES KATs above plus the degenerate k1=k2=k3 property below). *)
  let k3 = Des3.of_string (unhex "0123456789abcdef23456789abcdef01456789abcdef0123") in
  let block_of s =
    let b = ref 0L in
    String.iter
      (fun c -> b := Int64.logor (Int64.shift_left !b 8) (Int64.of_int (Char.code c)))
      s;
    !b
  in
  check Alcotest.bool "ede3 block" true
    (Des3.encrypt_block k3 (block_of (unhex "0123456789abcde7")) = 0x403968fe84baa9a7L);
  check Alcotest.bool "ede3 block decrypt" true
    (Des3.decrypt_block k3 0x403968fe84baa9a7L = block_of (unhex "0123456789abcde7"));
  let iv = unhex "1234567890abcdef" in
  let pt = "Now is the time for all " in
  check Alcotest.string "ede3 cbc"
    "f3c0ff026c023089656fbb169def7edb30ba36075d6f0176c55961ed6a941845"
    (hex (Des3.encrypt_cbc ~iv k3 pt));
  check Alcotest.string "ede3 cbc decrypt" pt
    (Des3.decrypt_cbc ~iv k3
       (unhex "f3c0ff026c023089656fbb169def7edb30ba36075d6f0176c55961ed6a941845"))

(* --- Differential suite: fast kernel vs the retained seed kernel ---

   [Des_ref] is the original bit-gather implementation kept verbatim as an
   oracle.  The fast kernel must agree byte-for-byte on every key, block,
   mode, and length, in both directions. *)

module Des_ref = Fbsr_oracles.Des_ref

let ref_encrypt_block_bytes key pt =
  let b = ref 0L in
  String.iter
    (fun c -> b := Int64.logor (Int64.shift_left !b 8) (Int64.of_int (Char.code c)))
    pt;
  let v = Des_ref.encrypt_block key !b in
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (56 - (8 * i))) land 0xff))

let prop_differential_block =
  QCheck.Test.make ~name:"kernel = reference kernel (single block)" ~count:500
    (QCheck.pair key8 key8) (fun (key, block) ->
      Des.encrypt_block_bytes (Des.of_string key) block
      = ref_encrypt_block_bytes (Des_ref.of_string key) block)

let modes4 = [ (Des.Ecb, Des_ref.Ecb); (Des.Cbc, Des_ref.Cbc);
               (Des.Cfb, Des_ref.Cfb); (Des.Ofb, Des_ref.Ofb) ]

let prop_differential_modes =
  QCheck.Test.make ~name:"kernel = reference kernel (all four modes)" ~count:200
    QCheck.(triple key8 key8 (pair arbitrary_bytes (int_bound 3)))
    (fun (key, iv, (msg, mode_ix)) ->
      let mode, ref_mode = List.nth modes4 mode_ix in
      let k = Des.of_string key and rk = Des_ref.of_string key in
      let ct = Des.encrypt ~mode ~iv k msg in
      ct = Des_ref.encrypt ~mode:ref_mode ~iv rk msg
      && Des.decrypt ~mode ~iv k ct = Des_ref.decrypt ~mode:ref_mode ~iv rk ct
      && Des.decrypt ~mode ~iv k ct = msg)

let prop_differential_into_sub =
  (* The zero-copy entry points against the oracle's one-shot CBC: encrypt
     a sub-range into an offset destination, decrypt it back from a padded
     surrounding buffer. *)
  QCheck.Test.make ~name:"cbc_into/cbc_sub = reference CBC" ~count:200
    QCheck.(triple key8 key8 (pair arbitrary_bytes (int_bound 16)))
    (fun (key, iv, (msg, dst_pad)) ->
      let k = Des.of_string key and rk = Des_ref.of_string key in
      let expected = Des_ref.encrypt_cbc ~iv rk msg in
      let dst = Bytes.make (dst_pad + String.length expected) '\xee' in
      let wrote =
        Des.encrypt_cbc_into ~iv k ~src:msg ~src_pos:0
          ~src_len:(String.length msg) ~dst ~dst_pos:dst_pad
      in
      wrote = String.length expected
      && Bytes.sub_string dst dst_pad wrote = expected
      && Des.decrypt_cbc_sub ~iv k
           ~src:(Bytes.to_string dst) ~pos:dst_pad ~len:wrote
         = msg)

(* --- Bitsliced kernel differential battery ---

   [Des_bitslice] re-derives the entire cipher (generated s-box circuits,
   transposed key schedules, lane scatter/gather), so it is pinned three
   ways: against the published KAT tables, against the table-driven
   [Des]/[Des_kernel] path, and — through that path's own differential
   suite above — against the retained [Des_ref] seed kernel.  Batches are
   deliberately ragged (1..130 lanes, so both the sub-[lanes] groups and
   the chunked oversize case run) with a distinct key per lane. *)

let scalar_encrypt_lanes keys blocks =
  Array.map2 (fun k b -> Des.encrypt_block_bytes k b) keys blocks

let test_bitslice_kat_tables () =
  (* Both NBS tables as one 16-lane batch, each lane under its own key:
     the variable-plaintext rows exercise every data-path bit, the
     variable-key rows every key-schedule bit, and running them in one
     call checks the lanes do not bleed into each other. *)
  let rows =
    [
      ("0101010101010101", "8000000000000000", "95f8a5e5dd31d900");
      ("0101010101010101", "4000000000000000", "dd7f121ca5015619");
      ("0101010101010101", "2000000000000000", "2e8653104f3834ea");
      ("0101010101010101", "1000000000000000", "4bd388ff6cd81d4f");
      ("0101010101010101", "0800000000000000", "20b9e767b2fb1456");
      ("0101010101010101", "0400000000000000", "55579380d77138ef");
      ("0101010101010101", "0200000000000000", "6cc5defaaf04512f");
      ("0101010101010101", "0100000000000000", "0d9f279ba5d87260");
      ("8001010101010101", "0000000000000000", "95a8d72813daa94d");
      ("4001010101010101", "0000000000000000", "0eec1487dd8c26d5");
      ("2001010101010101", "0000000000000000", "7ad16ffb79c45926");
      ("1001010101010101", "0000000000000000", "d3746294ca6a6cf3");
      ("0801010101010101", "0000000000000000", "809f5f873c1fd761");
      ("0401010101010101", "0000000000000000", "c02faffec989d1fc");
      ("0201010101010101", "0000000000000000", "4615aa1d33e72f10");
      ("0180010101010101", "0000000000000000", "2055123350c00858");
    ]
  in
  let keys = Array.of_list (List.map (fun (k, _, _) -> Des.of_string (unhex k)) rows) in
  let pts = Array.of_list (List.map (fun (_, p, _) -> unhex p) rows) in
  let cts = Array.of_list (List.map (fun (_, _, c) -> unhex c) rows) in
  let got = Des_bitslice.encrypt_block_lanes keys pts in
  Array.iteri
    (fun i ct -> check Alcotest.string (Printf.sprintf "row %d encrypt" i) (hex ct) (hex got.(i)))
    cts;
  let back = Des_bitslice.decrypt_block_lanes keys cts in
  Array.iteri
    (fun i pt -> check Alcotest.string (Printf.sprintf "row %d decrypt" i) (hex pt) (hex back.(i)))
    pts

let test_bitslice_weak_keys () =
  (* The four weak keys (self-inverse schedules: E_k = D_k) and the six
     semi-weak pairs (E_k1 = D_k2).  The degenerate schedules hit key-bit
     patterns random keys essentially never produce, and the structural
     properties must survive the transposed schedule load. *)
  let weak =
    [ "0101010101010101"; "fefefefefefefefe"; "1f1f1f1f0e0e0e0e"; "e0e0e0e0f1f1f1f1" ]
  in
  let semiweak =
    [
      ("01fe01fe01fe01fe", "fe01fe01fe01fe01");
      ("1fe01fe00ef10ef1", "e01fe01ff10ef10e");
      ("01e001e001f101f1", "e001e001f101f101");
      ("1ffe1ffe0efe0efe", "fe1ffe1ffe0efe0e");
      ("011f011f010e010e", "1f011f010e010e01");
      ("e0fee0fef1fef1fe", "fee0fee0fef1fef1");
    ]
  in
  let block = unhex "0123456789abcdef" in
  List.iter
    (fun wk ->
      let k = Des.of_string (unhex wk) in
      check Alcotest.bool (wk ^ " flagged weak") true (Des.is_weak_key (unhex wk));
      let ct = (Des_bitslice.encrypt_block_lanes [| k |] [| block |]).(0) in
      check Alcotest.string (wk ^ " = scalar") (hex (Des.encrypt_block_bytes k block))
        (hex ct);
      (* Weak key: encryption is an involution. *)
      check Alcotest.string (wk ^ " involution") (hex block)
        (hex (Des_bitslice.encrypt_block_lanes [| k |] [| ct |]).(0)))
    weak;
  List.iter
    (fun (k1h, k2h) ->
      let k1 = Des.of_string (unhex k1h) and k2 = Des.of_string (unhex k2h) in
      let ct = (Des_bitslice.encrypt_block_lanes [| k1 |] [| block |]).(0) in
      check Alcotest.string (k1h ^ " = scalar") (hex (Des.encrypt_block_bytes k1 block))
        (hex ct);
      (* Semi-weak pair: E_{k2} undoes E_{k1}. *)
      check Alcotest.string (k1h ^ "/" ^ k2h ^ " pair inverse") (hex block)
        (hex (Des_bitslice.encrypt_block_lanes [| k2 |] [| ct |]).(0)))
    semiweak

let prop_bitslice_block_lanes =
  QCheck.Test.make ~name:"bitslice lanes = scalar kernel (ragged, distinct keys)"
    ~count:60
    QCheck.(pair (int_range 1 130) int)
    (fun (n, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand8 () = String.init 8 (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      let keys = Array.init n (fun _ -> Des.of_string (rand8 ())) in
      let blocks = Array.init n (fun _ -> rand8 ()) in
      let got = Des_bitslice.encrypt_block_lanes keys blocks in
      got = scalar_encrypt_lanes keys blocks
      && Des_bitslice.decrypt_block_lanes keys got = blocks)

let prop_bitslice_cbc_jobs =
  QCheck.Test.make ~name:"bitslice CBC jobs = Des.encrypt_cbc_into (ragged batches)"
    ~count:40
    QCheck.(pair (int_range 1 70) int)
    (fun (njobs, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand n = String.init n (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      (* Distinct keys and lengths per job; lengths straddle block
         boundaries so every job ends in a different padding shape. *)
      let jobs_spec =
        Array.init njobs (fun _ ->
            (Des.of_string (rand 8), rand 8, rand (1 + Fbsr_util.Rng.int rng 200)))
      in
      let dsts =
        Array.map
          (fun (_, _, msg) -> Bytes.make (Des.padded_length (String.length msg)) '\xee')
          jobs_spec
      in
      let jobs =
        Array.mapi
          (fun i (key, iv, msg) ->
            Des_bitslice.cbc_job ~key ~iv ~src:msg ~src_pos:0
              ~src_len:(String.length msg) ~dst:dsts.(i) ~dst_pos:0)
          jobs_spec
      in
      let threshold = 1 + Fbsr_util.Rng.int rng 30 in
      let bs, sc = Des_bitslice.encrypt_cbc_jobs ~threshold jobs in
      let total_blocks =
        Array.fold_left
          (fun acc (_, _, msg) -> acc + (Des.padded_length (String.length msg) / 8))
          0 jobs_spec
      in
      bs + sc = total_blocks
      && Array.for_all
           (fun i ->
             let key, iv, msg = jobs_spec.(i) in
             let expected = Bytes.make (Des.padded_length (String.length msg)) '\x00' in
             let (_ : int) =
               Des.encrypt_cbc_into ~iv key ~src:msg ~src_pos:0
                 ~src_len:(String.length msg) ~dst:expected ~dst_pos:0
             in
             Bytes.equal dsts.(i) expected)
           (Array.init njobs (fun i -> i)))

let prop_bitslice_decrypt_sub =
  QCheck.Test.make ~name:"bitslice decrypt_cbc_sub = Des.decrypt_cbc_sub" ~count:60
    QCheck.(triple key8 key8 (pair (int_bound 300) (int_bound 10)))
    (fun (key, iv, (msg_len, pad)) ->
      let k = Des.of_string key in
      let msg = String.init msg_len (fun i -> Char.chr ((i * 37) land 0xff)) in
      let ct = Des.encrypt_cbc ~iv k msg in
      (* Embed the ciphertext at an offset inside a larger buffer so the
         sub-range gather is exercised, not just pos = 0. *)
      let buf = String.make pad '\xaa' ^ ct ^ String.make pad '\xbb' in
      Des_bitslice.decrypt_cbc_sub ~iv k ~src:buf ~pos:pad ~len:(String.length ct)
      = msg
      (* Low threshold forces the bitsliced path even for short inputs. *)
      && Des_bitslice.decrypt_cbc_sub ~threshold:2 ~iv k ~src:buf ~pos:pad
           ~len:(String.length ct)
         = msg)

let prop_bitslice_dec_jobs =
  QCheck.Test.make
    ~name:"bitslice decrypt jobs = Des.decrypt_cbc_sub (ragged batches)"
    ~count:40
    QCheck.(pair (int_range 1 70) int)
    (fun (njobs, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand n = String.init n (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      (* Distinct keys, IVs, lengths and embedding offsets per job, so
         the lockstep gather mixes padding shapes and sub-ranges. *)
      let specs =
        Array.init njobs (fun _ ->
            let key = Des.of_string (rand 8) in
            let iv = rand 8 in
            let msg = rand (Fbsr_util.Rng.int rng 200) in
            let ct = Des.encrypt_cbc ~iv key msg in
            let pad = Fbsr_util.Rng.int rng 10 in
            let buf = rand pad ^ ct ^ rand pad in
            (key, iv, msg, buf, pad, String.length ct))
      in
      let jobs =
        Array.map
          (fun (key, iv, _, buf, pad, len) ->
            Des_bitslice.dec_job ~key ~iv ~src:buf ~src_pos:pad ~src_len:len)
          specs
      in
      let threshold = 1 + Fbsr_util.Rng.int rng 30 in
      let bs, sc = Des_bitslice.decrypt_cbc_jobs ~threshold jobs in
      let full_blocks =
        Array.fold_left (fun acc (_, _, _, _, _, len) -> acc + ((len / 8) - 1)) 0 specs
      in
      bs + sc = full_blocks
      && Array.for_all
           (fun i ->
             let _, _, msg, _, _, _ = specs.(i) in
             Bytes.to_string (Des_bitslice.dec_job_out jobs.(i)) = msg)
           (Array.init njobs (fun i -> i)))

let test_bitslice_dec_job_corrupt_padding () =
  let k = Des.of_string "abcdefgh" in
  let iv = "12345678" in
  (* Corrupt padding must be rejected at job construction — before the
     frame occupies a batch lane — with the scalar path's exception. *)
  let bogus = String.make 160 '\x00' in
  Alcotest.check_raises "corrupt padding at dec_job construction"
    (Invalid_argument "Des.decrypt_cbc_sub: corrupt padding") (fun () ->
      ignore
        (Des_bitslice.dec_job ~key:k ~iv ~src:bogus ~src_pos:0
           ~src_len:(String.length bogus)))

let test_bitslice_decrypt_corrupt_padding () =
  let k = Des.of_string "abcdefgh" in
  let iv = "12345678" in
  (* A long all-zero "ciphertext" decrypts to garbage whose last byte is
     essentially never valid padding; both kernels must raise the same
     exception, on both the scalar and bitsliced paths. *)
  let bogus = String.make 160 '\x00' in
  List.iter
    (fun threshold ->
      Alcotest.check_raises
        (Printf.sprintf "corrupt padding (threshold %d)" threshold)
        (Invalid_argument "Des.decrypt_cbc_sub: corrupt padding")
        (fun () ->
          ignore
            (Des_bitslice.decrypt_cbc_sub ~threshold ~iv k ~src:bogus ~pos:0
               ~len:(String.length bogus))))
    [ 2; 1000 ]

(* --- Hash and MAC midstates ---

   A midstate must be (a) byte-identical to the one-shot digest over the
   prefixed message, (b) reusable — resuming never mutates it — and (c)
   equivalent across every split point of the message, since the engine
   resumes with whatever slice list the wire layout produced. *)

let slices_of rng (s : string) =
  (* Cut [s] into 1..4 random-length slice parts. *)
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let len = min (String.length s - pos) (1 + Fbsr_util.Rng.int rng 97) in
      go (pos + len) (Fbsr_util.Slice.v ~off:pos ~len s :: acc)
  in
  go 0 []

let prop_midstate_resume hash name =
  QCheck.Test.make ~name:(name ^ " midstate resume = one-shot") ~count:150
    QCheck.(triple arbitrary_bytes arbitrary_bytes int)
    (fun (prefix, msg, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let mid = Hash.midstate hash ~prefix in
      let parts = slices_of rng msg in
      let expected = Hash.digest hash (prefix ^ msg) in
      let r1 = Hash.resume_slices mid parts in
      (* Resume twice (and once through the string-parts flavour): the
         midstate is immutable, so all three must agree. *)
      r1 = expected
      && Hash.resume_slices mid parts = expected
      && Hash.resume_list mid [ msg ] = expected
      && Hash.name (Hash.midstate_hash mid) = name)

let prop_midstate_resume_md5 = prop_midstate_resume Hash.md5 "md5"
let prop_midstate_resume_sha1 = prop_midstate_resume Hash.sha1 "sha1"

let prop_hash_copy_independent =
  QCheck.Test.make ~name:"Hash copy is an independent snapshot" ~count:100
    QCheck.(pair arbitrary_bytes arbitrary_bytes)
    (fun (a, b) ->
      let ctx = Md5.init () in
      Md5.update ctx a;
      let snap = Md5.copy ctx in
      Md5.update ctx b;
      (* Finalizing the copy sees only [a]; the original saw [a ^ b]. *)
      Md5.final snap = Md5.digest a && Md5.final ctx = Md5.digest (a ^ b))

let mac_algorithms =
  [ (Mac.Prefix, "prefix"); (Mac.Hmac, "hmac"); (Mac.Des_cbc_mac, "des-cbc-mac") ]

let prop_mac_midstate =
  QCheck.Test.make ~name:"Mac midstate = compute_slices (all algorithms)" ~count:100
    QCheck.(triple arbitrary_bytes arbitrary_bytes int)
    (fun (key, msg, seed) ->
      let key = if String.length key < 8 then key ^ String.make 8 'k' else key in
      let rng = Fbsr_util.Rng.create seed in
      List.for_all
        (fun (algorithm, _) ->
          let mid = Mac.prepare ~algorithm Hash.md5 ~key in
          let parts = slices_of rng msg in
          let expected = Mac.compute_slices ~algorithm Hash.md5 ~key parts in
          Mac.compute_midstate mid parts = expected
          && Mac.compute_midstate mid parts = expected
          && Mac.verify_midstate mid parts
               ~expected:(Fbsr_util.Slice.of_string expected)
          (* Truncated wire MACs verify against the matching prefix. *)
          && Mac.verify_midstate mid parts
               ~expected:(Fbsr_util.Slice.v ~len:(String.length expected / 2) expected)
          &&
          (* A flipped bit in the expected MAC must be rejected. *)
          let tampered =
            String.mapi
              (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
              expected
          in
          not (Mac.verify_midstate mid parts ~expected:(Fbsr_util.Slice.of_string tampered)))
        mac_algorithms)

(* --- Hash kernel differential battery: fast kernels vs retained oracles ---

   [Md5_ref]/[Sha1_ref] are the pre-rewrite streaming implementations,
   retained verbatim as oracles (the [Des_ref] pattern).  The unrolled
   kernels are pinned three ways: the oracles against the published
   RFC 1321 / FIPS 180-1 vectors, the fast kernels against the oracles
   over ragged lengths / split points / feed offsets, and the HMAC and
   hash-CTR keystream constructions on top against re-derivations built
   from the oracles alone. *)

module Md5_ref = Fbsr_oracles.Md5_ref
module Sha1_ref = Fbsr_oracles.Sha1_ref

let test_hash_ref_kats () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string ("ref " ^ input) expected (Md5_ref.hexdigest input))
    md5_vectors;
  check Alcotest.string "ref sha1 empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    (Sha1_ref.hexdigest "");
  check Alcotest.string "ref sha1 abc" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Sha1_ref.hexdigest "abc");
  check Alcotest.string "ref sha1 two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1_ref.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let ragged_msg rng =
  (* Lengths biased toward the 55..65 / 119..129 padding and block
     boundaries where compression and length-encoding bugs live. *)
  let n =
    match Fbsr_util.Rng.int rng 4 with
    | 0 -> Fbsr_util.Rng.int rng 300
    | 1 -> 55 + Fbsr_util.Rng.int rng 11
    | 2 -> 119 + Fbsr_util.Rng.int rng 11
    | _ -> Fbsr_util.Rng.int rng 8
  in
  String.init n (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256))

let hash_diff_prop label (module F : Hash.S) (module R : Hash.S) =
  QCheck.Test.make
    ~name:(label ^ " kernel = retained oracle (ragged lengths, all entry points)")
    ~count:300 QCheck.int
    (fun seed ->
      let rng = Fbsr_util.Rng.create seed in
      let msg = ragged_msg rng in
      let len = String.length msg in
      let expected = R.digest msg in
      (* One-shot. *)
      F.digest msg = expected
      (* Streaming with a random split point. *)
      && (let cut = if len = 0 then 0 else Fbsr_util.Rng.int rng (len + 1) in
          let ctx = F.init () in
          F.update ctx (String.sub msg 0 cut);
          F.update ctx (String.sub msg cut (len - cut));
          F.final ctx = expected)
      (* [feed] from an offset inside a larger buffer, and slice feed. *)
      && (let pad = Fbsr_util.Rng.int rng 10 in
          let buf = String.make pad 'L' ^ msg ^ String.make pad 'R' in
          let ctx = F.init () in
          F.feed ctx buf pad len;
          F.final ctx = expected
          &&
          let ctx2 = F.init () in
          F.feed_slice ctx2 (Fbsr_util.Slice.v ~off:pad ~len buf);
          F.final ctx2 = expected)
      (* Multi-part convenience entry point. *)
      && F.digest_list [ msg; "|"; msg ] = R.digest_list [ msg; "|"; msg ])

let prop_md5_vs_oracle = hash_diff_prop "md5" (module Md5) (module Md5_ref)
let prop_sha1_vs_oracle = hash_diff_prop "sha1" (module Sha1) (module Sha1_ref)

let midstate_oracle_prop label hash (module R : Hash.S) =
  QCheck.Test.make
    ~name:(label ^ " midstate resume = oracle digest of prefix^msg") ~count:150
    QCheck.(triple arbitrary_bytes arbitrary_bytes int)
    (fun (prefix, msg, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let mid = Hash.midstate hash ~prefix in
      Hash.resume_slices mid (slices_of rng msg) = R.digest (prefix ^ msg))

let prop_md5_midstate_vs_oracle =
  midstate_oracle_prop "md5" Hash.md5 (module Md5_ref)

let prop_sha1_midstate_vs_oracle =
  midstate_oracle_prop "sha1" Hash.sha1 (module Sha1_ref)

(* RFC 2104 HMAC re-derived from the oracle module alone. *)
let hmac_ref (module R : Hash.S) ~key parts =
  let block = R.block_size in
  let key = if String.length key > block then R.digest key else key in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xor_pad byte =
    String.init block (fun i -> Char.chr (Char.code key.[i] lxor byte))
  in
  R.digest_list [ xor_pad 0x5c; R.digest_list (xor_pad 0x36 :: parts) ]

let hmac_oracle_prop label hash rmod =
  QCheck.Test.make ~name:("hmac-" ^ label ^ " = oracle-built HMAC") ~count:150
    QCheck.(triple arbitrary_bytes (small_list arbitrary_bytes) int)
    (fun (key, parts, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      Mac.hmac hash ~key parts = hmac_ref rmod ~key parts
      && (let (module R : Hash.S) = rmod in
          Mac.prefix hash ~key parts = R.digest (String.concat "" (key :: parts)))
      &&
      (* The midstate-resumed flavour too (the per-datagram path). *)
      let mid = Mac.prepare ~algorithm:Mac.Hmac hash ~key in
      Mac.compute_midstate mid (slices_of rng (String.concat "" parts))
      = hmac_ref rmod ~key parts)

let prop_hmac_md5_vs_oracle = hmac_oracle_prop "md5" Hash.md5 (module Md5_ref : Hash.S)
let prop_hmac_sha1_vs_oracle = hmac_oracle_prop "sha1" Hash.sha1 (module Sha1_ref : Hash.S)

(* Hash-CTR keystream re-derived from the oracle: block i is
   H(key | iv | be32 i), XORed over the data. *)
let keystream_ref (module R : Hash.S) ~key ~iv src =
  let block = R.digest_size in
  String.init (String.length src) (fun i ->
      let blk = i / block in
      let ctr =
        String.init 4 (fun j -> Char.chr ((blk lsr (24 - (8 * j))) land 0xff))
      in
      let ks = R.digest_list [ key; iv; ctr ] in
      Char.chr (Char.code src.[i] lxor Char.code ks.[i mod block]))

let keystream_oracle_prop label hash rmod =
  QCheck.Test.make ~name:("keystream-" ^ label ^ " = oracle hash-CTR") ~count:80
    QCheck.(triple arbitrary_bytes key8 arbitrary_bytes)
    (fun (key, iv, src) ->
      let t = Keystream.create hash ~key in
      Keystream.transform t ~iv src = keystream_ref rmod ~key ~iv src
      && Keystream.transform t ~iv (Keystream.transform t ~iv src) = src)

let prop_keystream_md5_vs_oracle =
  keystream_oracle_prop "md5" Hash.md5 (module Md5_ref : Hash.S)

let prop_keystream_sha1_vs_oracle =
  keystream_oracle_prop "sha1" Hash.sha1 (module Sha1_ref : Hash.S)

(* --- DES modes --- *)

let mode_roundtrip name encrypt decrypt =
  QCheck.Test.make ~name ~count:150 (QCheck.triple key8 key8 arbitrary_bytes)
    (fun (key, iv, msg) ->
      let k = Des.of_string key in
      decrypt ~iv k (encrypt ~iv k msg) = msg)

let prop_cbc_roundtrip = mode_roundtrip "CBC roundtrip" Des.encrypt_cbc Des.decrypt_cbc
let prop_cfb_roundtrip = mode_roundtrip "CFB roundtrip" Des.encrypt_cfb Des.decrypt_cfb
let prop_ofb_roundtrip = mode_roundtrip "OFB roundtrip" Des.encrypt_ofb Des.decrypt_ofb

let prop_ecb_roundtrip =
  QCheck.Test.make ~name:"ECB+confounder roundtrip" ~count:150
    (QCheck.triple key8 key8 arbitrary_bytes) (fun (key, conf, msg) ->
      let k = Des.of_string key in
      Des.decrypt_ecb ~confounder:conf k (Des.encrypt_ecb ~confounder:conf k msg) = msg)

let test_cbc_fips81_sample () =
  (* The FIPS PUB 81 CBC worked example: key 0123456789abcdef, IV
     1234567890abcdef, plaintext "Now is the time for all ".  Our fourth
     block is the PKCS#7 padding block (the sample's plaintext is an exact
     multiple of the block size). *)
  let k = Des.of_string (unhex "0123456789abcdef") in
  let iv = unhex "1234567890abcdef" in
  let ct = Des.encrypt_cbc ~iv k "Now is the time for all " in
  check Alcotest.string "first three blocks match FIPS 81"
    "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f6"
    (hex (String.sub ct 0 24))

let test_stream_modes_length () =
  let k = Des.of_string "abcdefgh" in
  List.iter
    (fun n ->
      let msg = String.make n 'm' in
      check Alcotest.int "cfb length" n (String.length (Des.encrypt_cfb ~iv:"12345678" k msg));
      check Alcotest.int "ofb length" n (String.length (Des.encrypt_ofb ~iv:"12345678" k msg)))
    [ 0; 1; 7; 8; 9; 100 ]

let test_cbc_iv_matters () =
  let k = Des.of_string "abcdefgh" in
  let msg = "same plaintext every time" in
  let c1 = Des.encrypt_cbc ~iv:"11111111" k msg in
  let c2 = Des.encrypt_cbc ~iv:"22222222" k msg in
  check Alcotest.bool "different IV, different ciphertext" true (c1 <> c2)

let test_ecb_confounder_hides_identical_blocks () =
  (* Raw ECB leaks identical plaintext blocks; the paper's confounder
     whitening does not help within one datagram (same confounder for
     every block) but differs across datagrams. *)
  let k = Des.of_string "abcdefgh" in
  let two_identical = String.make 16 'z' in
  let c_a = Des.encrypt_ecb ~confounder:"AAAAAAAA" k two_identical in
  let c_b = Des.encrypt_ecb ~confounder:"BBBBBBBB" k two_identical in
  check Alcotest.bool "different confounder, different ciphertext" true (c_a <> c_b);
  (* Within one datagram, identical blocks still encrypt identically in
     ECB (that is ECB's nature). *)
  check Alcotest.string "block 0 = block 1 within a datagram"
    (hex (String.sub c_a 0 8))
    (hex (String.sub c_a 8 8))

let test_unpad_corrupt () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("unpad " ^ hex s)
        (Invalid_argument "Des.unpad: corrupt padding") (fun () ->
          ignore (Des.unpad s)))
    [ String.make 8 '\x00'; String.make 8 '\x09'; "1234567" ^ "\x02" ]

let prop_cbc_tamper_detected_by_length =
  QCheck.Test.make ~name:"CBC decrypt of truncated input fails" ~count:100
    (QCheck.pair key8 arbitrary_bytes) (fun (key, msg) ->
      QCheck.assume (String.length msg > 0);
      let k = Des.of_string key in
      let ct = Des.encrypt_cbc ~iv:"12345678" k msg in
      let truncated = String.sub ct 0 (String.length ct - 1) in
      match Des.decrypt_cbc ~iv:"12345678" k truncated with
      | _ -> String.length truncated mod 8 = 0 (* only whole blocks can even parse *)
      | exception Invalid_argument _ -> true)

(* --- Triple DES --- *)

let prop_des3_roundtrip =
  QCheck.Test.make ~name:"3DES CBC roundtrip" ~count:100
    (QCheck.triple key8 key8 arbitrary_bytes) (fun (k, iv, msg) ->
      (* Build a 24-byte key from three rotations of the 8-byte sample. *)
      let rot s n = String.sub s n (8 - n) ^ String.sub s 0 n in
      let key = Des3.of_string (k ^ rot k 3 ^ rot k 5) in
      Des3.decrypt_cbc ~iv key (Des3.encrypt_cbc ~iv key msg) = msg)

let test_des3_degenerates_to_des () =
  (* EDE with k1=k2=k3 is single DES: E(k,D(k,E(k,b))) = E(k,b). *)
  let k8 = unhex "133457799bbcdff1" in
  let des = Des.of_string k8 in
  let des3 = Des3.degenerate_of_des_key k8 in
  let block = 0x0123456789abcdefL in
  check Alcotest.bool "degenerate 3DES = DES" true
    (Des3.encrypt_block des3 block = Des.encrypt_block des block)

let test_des3_key_length () =
  Alcotest.check_raises "bad key" (Invalid_argument "Des3: key must be 24 bytes")
    (fun () -> ignore (Des3.of_string "short"))

(* --- Fused single-pass MAC+encrypt (Section 5.3 optimization) --- *)

let prop_fused_equals_two_pass =
  QCheck.Test.make ~name:"fused = mac-then-encrypt" ~count:150
    (QCheck.triple key8 key8 arbitrary_bytes) (fun (key, iv, payload) ->
      let des_key = Des.of_string key in
      let prefix_parts = [ "conf"; "tstamp" ] in
      Fused.mac_and_encrypt ~mac_key:"the mac key!" ~des_key ~iv ~prefix_parts payload
      = Fused.mac_then_encrypt ~mac_key:"the mac key!" ~des_key ~iv ~prefix_parts
          payload)

let prop_incremental_cbc =
  QCheck.Test.make ~name:"incremental CBC = one-shot CBC" ~count:150
    QCheck.(triple key8 key8 (pair arbitrary_bytes (int_bound 50)))
    (fun (key, iv, (payload, cut)) ->
      let des_key = Des.of_string key in
      let cut = if String.length payload = 0 then 0 else cut mod (String.length payload + 1) in
      let ctx = Des.cbc_init ~iv des_key in
      let c1 = Des.cbc_update ctx (String.sub payload 0 cut) in
      let c2 = Des.cbc_update ctx (String.sub payload cut (String.length payload - cut)) in
      let c3 = Des.cbc_finish ctx in
      c1 ^ c2 ^ c3 = Des.encrypt_cbc ~iv des_key payload)

(* --- MACs (RFC 2202) --- *)

let test_hmac_md5_rfc2202 () =
  let cases =
    [
      (String.make 16 '\x0b', "Hi There", "9294727a3638bb1c13f48ef8158bfc9d");
      ("Jefe", "what do ya want for nothing?", "750c783e6ab0b503eaa86e310a5db738");
      ( String.make 16 '\xaa',
        String.make 50 '\xdd',
        "56be34521d144c88dbb8c733f0e8b3f6" );
      ( unhex "0102030405060708090a0b0c0d0e0f10111213141516171819",
        String.make 50 '\xcd',
        "697eaf0aca3a3aea3a75164746ffaa79" );
      (String.make 80 '\xaa', "Test Using Larger Than Block-Size Key - Hash Key First",
       "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
    ]
  in
  List.iter
    (fun (key, data, expected) ->
      check Alcotest.string data expected (hex (Mac.hmac Hash.md5 ~key [ data ])))
    cases

let test_hmac_sha1_rfc2202 () =
  let cases =
    [
      (String.make 20 '\x0b', "Hi There", "b617318655057264e28bc0b6fb378c8ef146be00");
      ("Jefe", "what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
      ( String.make 20 '\xaa',
        String.make 50 '\xdd',
        "125d7342b9ac11cd91a39af48aa17b4f63f175d3" );
    ]
  in
  List.iter
    (fun (key, data, expected) ->
      check Alcotest.string data expected (hex (Mac.hmac Hash.sha1 ~key [ data ])))
    cases

let test_des_cbc_mac () =
  (* 8-byte tag, deterministic, key- and message-sensitive, and equal to
     the last CBC block by construction. *)
  let key = String.make 16 'k' in
  let m1 = Mac.des_cbc ~key [ "hello "; "world" ] in
  check Alcotest.int "tag size" 8 (String.length m1);
  check Alcotest.string "deterministic" m1 (Mac.des_cbc ~key [ "hello world" ]);
  check Alcotest.bool "message sensitive" true (m1 <> Mac.des_cbc ~key [ "hello worlt" ]);
  (* Note: 'k' and 'j' differ only in the DES parity bit, which the cipher
     discards — use a key that differs in effective bits. *)
  check Alcotest.bool "key sensitive" true
    (m1 <> Mac.des_cbc ~key:(String.make 16 'm') [ "hello world" ]);
  let des_key = Des.of_string (Des.adjust_parity (String.sub key 0 8)) in
  let ct = Des.encrypt_cbc ~iv:(String.make 8 '\000') des_key "hello world" in
  check Alcotest.string "last CBC block" (String.sub ct (String.length ct - 8) 8) m1;
  (* Dispatch through the suite mechanism. *)
  check Alcotest.string "compute dispatch" m1
    (Mac.compute ~algorithm:Mac.Des_cbc_mac Hash.md5 ~key [ "hello world" ])

let test_prefix_mac_definition () =
  (* The paper's MAC is literally H(key | message). *)
  check Alcotest.string "prefix = digest of concat"
    (hex (Md5.digest ("secretkey" ^ "payload")))
    (hex (Mac.prefix Hash.md5 ~key:"secretkey" [ "payload" ]))

let prop_mac_verify =
  QCheck.Test.make ~name:"mac verify accepts genuine, rejects tampered" ~count:200
    QCheck.(triple arbitrary_bytes arbitrary_bytes (int_bound 1000))
    (fun (key, msg, pos) ->
      let mac = Mac.compute Hash.md5 ~key [ msg ] in
      Mac.verify Hash.md5 ~key [ msg ] ~expected:mac
      &&
      if String.length msg = 0 then true
      else begin
        let pos = pos mod String.length msg in
        let tampered = Bytes.of_string msg in
        Bytes.set tampered pos (Char.chr (Char.code msg.[pos] lxor 1));
        not (Mac.verify Hash.md5 ~key [ Bytes.to_string tampered ] ~expected:mac)
      end)

let test_mac_truncate () =
  let mac = Mac.compute Hash.md5 ~key:"k" [ "m" ] in
  check Alcotest.int "truncate" 8 (String.length (Mac.truncate mac 8));
  Alcotest.check_raises "too long" (Invalid_argument "Mac.truncate: too long")
    (fun () -> ignore (Mac.truncate mac 99))

(* --- Constant-time compare --- *)

let prop_ct_equal =
  QCheck.Test.make ~name:"ct equal agrees with (=)" ~count:300
    QCheck.(pair arbitrary_bytes arbitrary_bytes)
    (fun (a, b) -> Ct.equal a b = (a = b))

(* --- Hash registry --- *)

let test_hash_registry () =
  check Alcotest.string "md5 name" "md5" (Hash.name Hash.md5);
  check Alcotest.int "md5 size" 16 (Hash.digest_size Hash.md5);
  check Alcotest.int "sha1 size" 20 (Hash.digest_size Hash.sha1);
  check Alcotest.string "of_name" "sha1" (Hash.name (Hash.of_name "sha1"));
  Alcotest.check_raises "unknown" (Invalid_argument "Hash.of_name: unknown hash nope")
    (fun () -> ignore (Hash.of_name "nope"))

(* --- BBS --- *)

let test_bbs_deterministic () =
  let rng = Fbsr_util.Rng.create 4 in
  let bbs1 = Bbs.create ~modulus_bits:128 rng ~seed:"same seed" in
  let rng2 = Fbsr_util.Rng.create 4 in
  let bbs2 = Bbs.create ~modulus_bits:128 rng2 ~seed:"same seed" in
  check Alcotest.string "same modulus+seed => same stream" (Bbs.bytes bbs1 16)
    (Bbs.bytes bbs2 16)

let test_bbs_seed_sensitivity () =
  let rng = Fbsr_util.Rng.create 4 in
  let bbs1 = Bbs.create ~modulus_bits:128 rng ~seed:"seed-one" in
  let rng2 = Fbsr_util.Rng.create 4 in
  let bbs2 = Bbs.create ~modulus_bits:128 rng2 ~seed:"seed-two" in
  check Alcotest.bool "different seeds differ" true (Bbs.bytes bbs1 16 <> Bbs.bytes bbs2 16)

let test_bbs_bits () =
  let rng = Fbsr_util.Rng.create 5 in
  let bbs = Bbs.create ~modulus_bits:128 rng ~seed:"bits" in
  let ones = ref 0 in
  for _ = 1 to 512 do
    let b = Bbs.next_bit bbs in
    check Alcotest.bool "bit" true (b = 0 || b = 1);
    ones := !ones + b
  done;
  (* Crude balance check: a CSPRNG should not be wildly biased. *)
  check Alcotest.bool "roughly balanced" true (!ones > 150 && !ones < 360)

(* --- Diffie-Hellman --- *)

let test_dh_commutativity () =
  let g = Lazy.force Dh.test_group in
  let rng = Fbsr_util.Rng.create 6 in
  for _ = 1 to 20 do
    let a = Dh.gen_private g rng and b = Dh.gen_private g rng in
    check Alcotest.string "shared secret agrees"
      (hex (Dh.shared_bytes g a (Dh.public g b)))
      (hex (Dh.shared_bytes g b (Dh.public g a)))
  done

let test_dh_oakley2 () =
  let g = Lazy.force Dh.oakley2 in
  let rng = Fbsr_util.Rng.create 7 in
  check Alcotest.int "1024 bits" 1024 (Fbsr_bignum.Nat.bit_length g.Dh.p);
  check Alcotest.bool "prime" true
    (Fbsr_bignum.Nat.is_probably_prime ~rounds:4 rng g.Dh.p);
  let a = Dh.gen_private g rng and b = Dh.gen_private g rng in
  check Alcotest.string "shared agrees on oakley2"
    (hex (Dh.shared_bytes g a (Dh.public g b)))
    (hex (Dh.shared_bytes g b (Dh.public g a)))

let test_dh_rejects_bad_public () =
  let g = Lazy.force Dh.test_group in
  let rng = Fbsr_util.Rng.create 8 in
  let a = Dh.gen_private g rng in
  List.iter
    (fun bad ->
      match Dh.shared g a bad with
      | _ -> Alcotest.fail "accepted out-of-range public value"
      | exception Invalid_argument _ -> ())
    [ Fbsr_bignum.Nat.zero; Fbsr_bignum.Nat.one; g.Dh.p ]

let test_dh_generated_group () =
  let rng = Fbsr_util.Rng.create 9 in
  let g = Dh.generate_group ~bits:64 rng in
  check Alcotest.int "group size" 64 (Fbsr_bignum.Nat.bit_length g.Dh.p);
  check Alcotest.bool "p prime" true (Fbsr_bignum.Nat.is_probably_prime rng g.Dh.p);
  (* Safe prime: (p-1)/2 is prime too. *)
  let q = Fbsr_bignum.Nat.shift_right (Fbsr_bignum.Nat.sub g.Dh.p Fbsr_bignum.Nat.one) 1 in
  check Alcotest.bool "q prime" true (Fbsr_bignum.Nat.is_probably_prime rng q);
  let a = Dh.gen_private g rng and b = Dh.gen_private g rng in
  check Alcotest.string "shared agrees"
    (hex (Dh.shared_bytes g a (Dh.public g b)))
    (hex (Dh.shared_bytes g b (Dh.public g a)))

let test_dh_public_bytes_roundtrip () =
  let g = Lazy.force Dh.test_group in
  let rng = Fbsr_util.Rng.create 10 in
  let a = Dh.gen_private g rng in
  let pub = Dh.public g a in
  check Alcotest.bool "roundtrip" true
    (Fbsr_bignum.Nat.equal pub (Dh.public_of_bytes (Dh.public_to_bytes g pub)))

(* --- RSA --- *)

let test_rsa_sign_verify () =
  let rng = Fbsr_util.Rng.create 11 in
  let key = Rsa.generate rng ~bits:512 in
  let pub = Rsa.public_key key in
  let s = Rsa.sign key ~hash:Hash.md5 "a signed message" in
  check Alcotest.bool "verifies" true
    (Rsa.verify pub ~hash:Hash.md5 "a signed message" ~signature:s);
  check Alcotest.bool "wrong message" false
    (Rsa.verify pub ~hash:Hash.md5 "another message" ~signature:s);
  check Alcotest.bool "wrong hash" false
    (Rsa.verify pub ~hash:Hash.sha1 "a signed message" ~signature:s);
  let tampered = Bytes.of_string s in
  Bytes.set tampered 10 (Char.chr (Char.code s.[10] lxor 1));
  check Alcotest.bool "tampered signature" false
    (Rsa.verify pub ~hash:Hash.md5 "a signed message" ~signature:(Bytes.to_string tampered));
  check Alcotest.bool "truncated signature" false
    (Rsa.verify pub ~hash:Hash.md5 "a signed message"
       ~signature:(String.sub s 0 (String.length s - 1)))

let test_rsa_wrong_key () =
  let rng = Fbsr_util.Rng.create 12 in
  let k1 = Rsa.generate rng ~bits:512 in
  let k2 = Rsa.generate rng ~bits:512 in
  let s = Rsa.sign k1 ~hash:Hash.md5 "msg" in
  check Alcotest.bool "other key rejects" false
    (Rsa.verify (Rsa.public_key k2) ~hash:Hash.md5 "msg" ~signature:s)

let prop_rsa_crt_consistent =
  (* public_op (private_op m) = m for m < n: validates the CRT path. *)
  QCheck.Test.make ~name:"RSA CRT private op inverts public op" ~count:20
    QCheck.(int_range 2 1_000_000)
    (fun m ->
      let rng = Fbsr_util.Rng.create 13 in
      let key = Rsa.generate rng ~bits:256 in
      let m = Fbsr_bignum.Nat.of_int m in
      Fbsr_bignum.Nat.equal m (Rsa.public_op (Rsa.public_key key) (Rsa.private_op key m)))

let () =
  Alcotest.run "crypto"
    [
      ( "md5",
        [
          Alcotest.test_case "RFC 1321 vectors" `Quick test_md5_vectors;
          Alcotest.test_case "digest_list" `Quick test_md5_digest_list;
          Alcotest.test_case "block boundaries" `Quick test_md5_block_boundaries;
          qtest prop_md5_streaming;
        ] );
      ( "sha1",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "million a" `Slow test_sha1_million_a;
          qtest prop_sha1_streaming;
        ] );
      ( "des",
        [
          Alcotest.test_case "known answers" `Quick test_des_kat;
          Alcotest.test_case "variable-plaintext KAT table" `Quick
            test_des_variable_plaintext_kat;
          Alcotest.test_case "variable-key KAT table" `Quick test_des_variable_key_kat;
          Alcotest.test_case "Rivest chain (Monte-Carlo-lite)" `Quick
            test_des_rivest_chain;
          Alcotest.test_case "mode KATs (ECB/CBC/CFB/OFB)" `Quick test_des_mode_kats;
          Alcotest.test_case "chained CBC Monte-Carlo-lite" `Quick test_des_mc_lite_cbc;
          Alcotest.test_case "weak keys" `Quick test_des_weak_keys;
          Alcotest.test_case "parity" `Quick test_des_parity;
          Alcotest.test_case "bad key length" `Quick test_des_bad_key_length;
          qtest prop_des_roundtrip;
          qtest prop_des_complementation;
        ] );
      ( "des-differential",
        [
          qtest prop_differential_block;
          qtest prop_differential_modes;
          qtest prop_differential_into_sub;
        ] );
      ( "des-bitslice",
        [
          Alcotest.test_case "NBS KAT tables as one batch" `Quick
            test_bitslice_kat_tables;
          Alcotest.test_case "weak and semi-weak keys" `Quick test_bitslice_weak_keys;
          Alcotest.test_case "corrupt padding raises (both paths)" `Quick
            test_bitslice_decrypt_corrupt_padding;
          qtest prop_bitslice_block_lanes;
          qtest prop_bitslice_cbc_jobs;
          qtest prop_bitslice_decrypt_sub;
          qtest prop_bitslice_dec_jobs;
          Alcotest.test_case "dec_job corrupt padding" `Quick
            test_bitslice_dec_job_corrupt_padding;
        ] );
      ( "midstates",
        [
          qtest prop_midstate_resume_md5;
          qtest prop_midstate_resume_sha1;
          qtest prop_hash_copy_independent;
          qtest prop_mac_midstate;
        ] );
      ( "hash-differential",
        [
          Alcotest.test_case "oracle KATs (RFC 1321 / FIPS 180-1)" `Quick
            test_hash_ref_kats;
          qtest prop_md5_vs_oracle;
          qtest prop_sha1_vs_oracle;
          qtest prop_md5_midstate_vs_oracle;
          qtest prop_sha1_midstate_vs_oracle;
          qtest prop_hmac_md5_vs_oracle;
          qtest prop_hmac_sha1_vs_oracle;
          qtest prop_keystream_md5_vs_oracle;
          qtest prop_keystream_sha1_vs_oracle;
        ] );
      ( "fused",
        [ qtest prop_fused_equals_two_pass; qtest prop_incremental_cbc ] );
      ( "des3",
        [
          Alcotest.test_case "EDE3 KAT (block + CBC)" `Quick test_des3_kat;
          Alcotest.test_case "degenerates to DES" `Quick test_des3_degenerates_to_des;
          Alcotest.test_case "key length" `Quick test_des3_key_length;
          qtest prop_des3_roundtrip;
        ] );
      ( "des-modes",
        [
          Alcotest.test_case "FIPS 81 CBC sample" `Quick test_cbc_fips81_sample;
          Alcotest.test_case "stream modes keep length" `Quick test_stream_modes_length;
          Alcotest.test_case "CBC IV matters" `Quick test_cbc_iv_matters;
          Alcotest.test_case "ECB confounder across datagrams" `Quick
            test_ecb_confounder_hides_identical_blocks;
          Alcotest.test_case "unpad rejects corrupt padding" `Quick test_unpad_corrupt;
          qtest prop_cbc_roundtrip;
          qtest prop_cfb_roundtrip;
          qtest prop_ofb_roundtrip;
          qtest prop_ecb_roundtrip;
          qtest prop_cbc_tamper_detected_by_length;
        ] );
      ( "mac",
        [
          Alcotest.test_case "HMAC-MD5 RFC 2202" `Quick test_hmac_md5_rfc2202;
          Alcotest.test_case "HMAC-SHA1 RFC 2202" `Quick test_hmac_sha1_rfc2202;
          Alcotest.test_case "prefix MAC definition" `Quick test_prefix_mac_definition;
          Alcotest.test_case "DES-CBC-MAC (footnote 12)" `Quick test_des_cbc_mac;
          Alcotest.test_case "truncate" `Quick test_mac_truncate;
          qtest prop_mac_verify;
        ] );
      ("ct", [ qtest prop_ct_equal ]);
      ("hash-registry", [ Alcotest.test_case "registry" `Quick test_hash_registry ]);
      ( "bbs",
        [
          Alcotest.test_case "deterministic" `Quick test_bbs_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_bbs_seed_sensitivity;
          Alcotest.test_case "bit balance" `Quick test_bbs_bits;
        ] );
      ( "dh",
        [
          Alcotest.test_case "commutativity (test group)" `Quick test_dh_commutativity;
          Alcotest.test_case "oakley group 2" `Quick test_dh_oakley2;
          Alcotest.test_case "rejects bad public values" `Quick test_dh_rejects_bad_public;
          Alcotest.test_case "generated safe-prime group" `Quick test_dh_generated_group;
          Alcotest.test_case "public bytes roundtrip" `Quick test_dh_public_bytes_roundtrip;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
          qtest prop_rsa_crt_consistent;
        ] );
    ]
