(* Tests for the crypto substrate: published known-answer tests (RFC 1321,
   FIPS 46 KATs, RFC 2202) plus structural properties
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
      check Alcotest.string input expected (hex (Md5.digest input)))
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

let test_des_cbc_kats () =
  (* CBC KATs on the FIPS 81 sample key/IV/plaintext.  The expectation
     includes our PKCS#7 padding block.  Golden values produced by the
     KAT-verified seed kernel and locked here before the table-driven
     rewrite. *)
  let k = Des.of_string (unhex "0123456789abcdef") in
  let iv = unhex "1234567890abcdef" in
  let pt = "Now is the time for all " in
  check Alcotest.string "cbc"
    "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f662c16a27e4fcf277"
    (hex (Des.encrypt_cbc ~iv k pt));
  check Alcotest.string "cbc decrypt" pt
    (Des.decrypt_cbc ~iv k
       (unhex "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f662c16a27e4fcf277"))

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

let prop_differential_cbc =
  QCheck.Test.make ~name:"kernel = reference kernel (CBC)" ~count:200
    QCheck.(triple key8 key8 arbitrary_bytes)
    (fun (key, iv, msg) ->
      let k = Des.of_string key and rk = Des_ref.of_string key in
      let ct = Des.encrypt_cbc ~iv k msg in
      ct = Des_ref.encrypt_cbc ~iv rk msg
      && Des.decrypt_cbc ~iv k ct = Des_ref.decrypt_cbc ~iv rk ct
      && Des.decrypt_cbc ~iv k ct = msg)

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

(* --- Key schedule: table-driven PC-1/PC-2 vs the bit-gather oracle --- *)

(* The four weak keys (self-inverse schedules: E_k = D_k) and the six
   semi-weak pairs (E_k1 = D_k2): key-bit patterns random keys
   essentially never produce. *)
let weak_keys =
  [ "0101010101010101"; "fefefefefefefefe"; "1f1f1f1f0e0e0e0e"; "e0e0e0e0f1f1f1f1" ]

let semiweak_pairs =
  [
    ("01fe01fe01fe01fe", "fe01fe01fe01fe01");
    ("1fe01fe00ef10ef1", "e01fe01ff10ef10e");
    ("01e001e001f101f1", "e001e001f101f101");
    ("1ffe1ffe0efe0efe", "fe1ffe1ffe0efe0e");
    ("011f011f010e010e", "1f011f010e010e01");
    ("e0fee0fef1fef1fe", "fee0fee0fef1fef1");
  ]

module Des_sched_ref = Fbsr_oracles.Des_sched_ref

(* The kernel keeps one schedule per key, in encrypt order; the oracle
   still expands both orders, and its decrypt words must be the encrypt
   words with the sixteen round pairs reversed, which is the order the
   kernel's decryption walks them in. *)
let reversed_pairs ke = Array.init 32 (fun i -> ke.((2 * (15 - (i / 2))) + (i land 1)))

let schedule_matches_oracle key =
  let ke = Des_kernel.schedule key and ke', kd' = Des_sched_ref.schedule key in
  ke = ke' && kd' = reversed_pairs ke'

let prop_schedule_oracle =
  QCheck.Test.make ~name:"table-driven schedule = bit-gather oracle (random keys)"
    ~count:500 key8 schedule_matches_oracle

let test_schedule_oracle_special_keys () =
  (* The weak and semi-weak keys, all-zero and all-one keys, and every
     single-bit key: each key bit reaches C||D through exactly one PC-1
     row, so the single-bit keys check every table row in isolation
     (the parity bits, which PC-1 drops, must give the zero key's
     schedule). *)
  let keys =
    List.map unhex
      (weak_keys
      @ List.concat_map (fun (a, b) -> [ a; b ]) semiweak_pairs
      @ [ "0000000000000000"; "ffffffffffffffff" ])
    @ List.init 64 (fun bit ->
          String.init 8 (fun i ->
              if i = bit / 8 then Char.chr (0x80 lsr (bit mod 8)) else '\000'))
  in
  List.iter
    (fun key ->
      let ke = Des_kernel.schedule key and ke', kd' = Des_sched_ref.schedule key in
      check Alcotest.(array int) (hex key ^ " encrypt words") ke' ke;
      check Alcotest.(array int) (hex key ^ " decrypt words") kd' (reversed_pairs ke))
    keys

let prop_schedule_ignores_parity =
  (* PC-1 never reads the low bit of a key byte, so flipping any subset
     of parity bits is the same DES key — why [Armor] schedules flow
     keys without [Des.adjust_parity]. *)
  QCheck.Test.make ~name:"parity bits never change Des.of_string's schedule"
    ~count:300
    QCheck.(pair key8 (int_bound 255))
    (fun (key, flips) ->
      let flipped =
        String.mapi
          (fun i c -> Char.chr (Char.code c lxor ((flips lsr i) land 1)))
          key
      in
      (* A key is its schedule, so structural equality compares the two. *)
      Des.of_string key = Des.of_string flipped)

(* --- Batched CBC jobs ---

   The seal lane's kernel pairs jobs on [Des_kernel.cbc_encrypt2], two
   chains with their own schedules, chains, sources and destinations in
   one loop.  It is pinned against the published KAT tables (single-block
   jobs, one key each), against the one-chain [Des] path, and against the
   retained [Des_ref] seed kernel.  Batches are ragged: odd and even job
   counts, so a lone last job runs too, and chains of unequal length, so
   the longer of a pair finishes on the one-lane loop. *)

let scalar_encrypt_lanes keys blocks =
  Array.map2 (fun k b -> Des.encrypt_block_bytes k b) keys blocks

(* Each 8-byte block as its own job under a zero IV, all in one batch:
   the first ciphertext block of a job is the block's encryption. *)
let zero_iv = String.make 8 '\000'

let job_encrypt_blocks keys blocks =
  let dsts = Array.map (fun _ -> Bytes.create 16) blocks in
  let jobs =
    Array.mapi
      (fun i b ->
        Des.cbc_job ~key:keys.(i) ~iv:zero_iv ~src:b ~src_pos:0 ~src_len:8 ~dst:dsts.(i)
          ~dst_pos:0)
      blocks
  in
  let (_ : int) = Des.encrypt_cbc_jobs jobs in
  Array.map (fun d -> Bytes.sub_string d 0 8) dsts

(* The inverse, through the inline open: each block followed by the
   encryption of a full padding block chained from it is a 16-byte
   ciphertext whose plaintext is the block's decryption. *)
let inline_decrypt_blocks keys blocks =
  Array.mapi
    (fun i b ->
      let pad = Des.encrypt_cbc ~iv:b keys.(i) "" in
      Des.decrypt_cbc_sub ~iv:zero_iv keys.(i) ~src:(b ^ pad) ~pos:0 ~len:16)
    blocks

let test_bitslice_kat_tables () =
  (* Both NBS tables as one 16-job batch, each job under its own key:
     the variable-plaintext rows exercise every data-path bit, the
     variable-key rows every key-schedule bit, and running them as eight
     two-chain pairs checks the chains do not bleed into each other. *)
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
  let got = job_encrypt_blocks keys pts in
  Array.iteri
    (fun i ct -> check Alcotest.string (Printf.sprintf "row %d encrypt" i) (hex ct) (hex got.(i)))
    cts;
  let back = inline_decrypt_blocks keys cts in
  Array.iteri
    (fun i pt -> check Alcotest.string (Printf.sprintf "row %d decrypt" i) (hex pt) (hex back.(i)))
    pts

let test_bitslice_weak_keys () =
  (* The degenerate schedules' structural properties must hold on the
     two-chain kernel, each key paired with a different one. *)
  let block = unhex "0123456789abcdef" in
  let partner = Des.of_string "p4rtn3r!" in
  (* [k]'s job runs as the first chain of a pair, then as the second. *)
  let enc k b =
    let a = job_encrypt_blocks [| k; partner |] [| b; b |]
    and z = job_encrypt_blocks [| partner; k |] [| b; b |] in
    check Alcotest.string "either chain of a pair" (hex a.(0)) (hex z.(1));
    a.(0)
  in
  List.iter
    (fun wk ->
      let k = Des.of_string (unhex wk) in
      check Alcotest.bool (wk ^ " flagged weak") true (Des.is_weak_key (unhex wk));
      let ct = enc k block in
      check Alcotest.string (wk ^ " = scalar") (hex (Des.encrypt_block_bytes k block))
        (hex ct);
      (* Weak key: encryption is an involution. *)
      check Alcotest.string (wk ^ " involution") (hex block) (hex (enc k ct)))
    weak_keys;
  List.iter
    (fun (k1h, k2h) ->
      let k1 = Des.of_string (unhex k1h) and k2 = Des.of_string (unhex k2h) in
      let ct = enc k1 block in
      check Alcotest.string (k1h ^ " = scalar") (hex (Des.encrypt_block_bytes k1 block))
        (hex ct);
      (* Semi-weak pair: E_{k2} undoes E_{k1}. *)
      check Alcotest.string (k1h ^ "/" ^ k2h ^ " pair inverse") (hex block)
        (hex (enc k2 ct)))
    semiweak_pairs

let prop_bitslice_block_lanes =
  QCheck.Test.make
    ~name:"bitslice lanes = scalar kernel: single-block two-chain jobs, distinct keys"
    ~count:60
    QCheck.(pair (int_range 1 130) int)
    (fun (n, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand8 () = String.init 8 (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      let keys = Array.init n (fun _ -> Des.of_string (rand8 ())) in
      let blocks = Array.init n (fun _ -> rand8 ()) in
      let got = job_encrypt_blocks keys blocks in
      got = scalar_encrypt_lanes keys blocks && inline_decrypt_blocks keys got = blocks)

(* Run [specs] (key, iv, message) as one batch of jobs, each embedded at
   an offset of its own in source and destination buffers; returns the
   kernel's block count and each job's ciphertext. *)
let run_cbc_jobs rng specs =
  let embedded =
    Array.map
      (fun (key, iv, msg) ->
        let off = Fbsr_util.Rng.int rng 9 in
        let dst = Bytes.make (off + Des.padded_length (String.length msg) + 3) '\xee' in
        (key, iv, String.make off '\x5a' ^ msg ^ "\xa5", off, dst))
      specs
  in
  let jobs =
    Array.mapi
      (fun i (key, iv, src, off, dst) ->
        let _, _, msg = specs.(i) in
        Des.cbc_job ~key ~iv ~src ~src_pos:off ~src_len:(String.length msg) ~dst
          ~dst_pos:off)
      embedded
  in
  let blocks = Des.encrypt_cbc_jobs jobs in
  ( blocks,
    Array.mapi
      (fun i (_, _, _, off, dst) ->
        let _, _, msg = specs.(i) in
        Bytes.sub_string dst off (Des.padded_length (String.length msg)))
      embedded )

let prop_bitslice_cbc_jobs =
  QCheck.Test.make
    ~name:"bitslice CBC jobs = Des.encrypt_cbc_into: two-chain pairs, ragged batches"
    ~count:40
    QCheck.(pair (int_range 1 70) int)
    (fun (njobs, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand n = String.init n (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      (* Distinct keys and lengths per job; lengths straddle block
         boundaries so every job ends in a different padding shape. *)
      let specs =
        Array.init njobs (fun _ ->
            (Des.of_string (rand 8), rand 8, rand (1 + Fbsr_util.Rng.int rng 200)))
      in
      let blocks, cts = run_cbc_jobs rng specs in
      blocks
      = Array.fold_left
          (fun acc (_, _, msg) -> acc + (Des.padded_length (String.length msg) / 8))
          0 specs
      && Array.for_all2
           (fun (key, iv, msg) ct ->
             let expected = Bytes.make (Des.padded_length (String.length msg)) '\x00' in
             let (_ : int) =
               Des.encrypt_cbc_into ~iv key ~src:msg ~src_pos:0
                 ~src_len:(String.length msg) ~dst:expected ~dst_pos:0
             in
             String.equal (Bytes.to_string expected) ct)
           specs cts)

let prop_cbc_jobs_oracle =
  QCheck.Test.make ~name:"encrypt_cbc_jobs = Des_ref CBC per job" ~count:80
    QCheck.(triple (int_range 0 9) bool int)
    (fun (njobs, shared, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand n = String.init n (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      let shared_key = rand 8 in
      (* 0-64 whole blocks per job, with and without a partial final
         block; one shared key or a distinct key per job. *)
      let specs =
        Array.init njobs (fun _ ->
            let whole = Fbsr_util.Rng.int rng 65 in
            let partial = if Fbsr_util.Rng.int rng 2 = 0 then 1 + Fbsr_util.Rng.int rng 7 else 0 in
            let key = if shared then shared_key else rand 8 in
            (key, rand 8, rand ((8 * whole) + partial)))
      in
      let _, cts =
        run_cbc_jobs rng (Array.map (fun (k, iv, msg) -> (Des.of_string k, iv, msg)) specs)
      in
      Array.for_all2
        (fun (k, iv, msg) ct -> String.equal (Des_ref.encrypt_cbc ~iv (Des_ref.of_string k) msg) ct)
        specs cts)

(* The outcome of a decrypt as a comparable value: the plaintext or the
   exception message. *)
let decrypt_outcome f =
  match f () with pt -> Ok pt | exception Invalid_argument m -> Error m

(* A decrypt outcome with the exception's text dropped: the oracle and
   the kernel word their errors differently. *)
let decrypt_verdict f = Result.map_error (fun (_ : string) -> ()) (decrypt_outcome f)

let test_bitslice_decrypt_every_length () =
  (* Every block count 1..256, so the two-block loop meets both parities
     of the [nb - 1] blocks it owes after the final one.  The inline open
     must equal the bit-gather oracle byte for byte, on the intact
     ciphertext and on a copy with the padding byte's predecessor
     ciphertext byte flipped (the IV's, for one block, so the last byte
     itself there), which both must refuse. *)
  let k = Des.of_string "fl0wk3y!" and rk = Des_ref.of_string "fl0wk3y!" in
  let iv = "ivivivIV" in
  for nb = 1 to 256 do
    let msg = String.init ((8 * nb) - 1 - (nb mod 8)) (fun i -> Char.chr ((i * 131) land 0xff)) in
    let ct = Des.encrypt_cbc ~iv k msg in
    assert (String.length ct = 8 * nb);
    let at = if nb = 1 then 7 else (8 * nb) - 9 in
    let flipped =
      String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor 0x5a) else c) ct
    in
    List.iter
      (fun (what, src) ->
        let len = String.length src in
        check
          Alcotest.(result string unit)
          (Printf.sprintf "%d blocks, %s" nb what)
          (decrypt_verdict (fun () -> Des_ref.decrypt_cbc ~iv rk src))
          (decrypt_verdict (fun () -> Des.decrypt_cbc_sub ~iv k ~src ~pos:0 ~len)))
      [ ("intact", ct); ("padding corrupted", flipped) ]
  done

let prop_decrypt_sub_oracle =
  QCheck.Test.make
    ~name:"decrypt_cbc_sub = Des_ref CBC, embedded, 0..194 full blocks"
    ~count:40
    QCheck.(pair (int_range 1 70) int)
    (fun (nopens, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let rand n = String.init n (fun _ -> Char.chr (Fbsr_util.Rng.int rng 256)) in
      (* Distinct keys, IVs, lengths (0..194 full blocks before the
         padded final one) and embedding offsets per open, so the run
         mixes padding shapes and sub-ranges. *)
      List.for_all
        (fun _ ->
          let key = rand 8 and iv = rand 8 in
          let msg = rand (Fbsr_util.Rng.int rng ((194 * 8) + 8)) in
          let ct = Des_ref.encrypt_cbc ~iv (Des_ref.of_string key) msg in
          let pad = Fbsr_util.Rng.int rng 10 in
          let buf = rand pad ^ ct ^ rand pad in
          Des.decrypt_cbc_sub ~iv (Des.of_string key) ~src:buf ~pos:pad
            ~len:(String.length ct)
          = msg)
        (List.init nopens Fun.id))

let test_bitslice_decrypt_corrupt_padding () =
  let k = Des.of_string "abcdefgh" in
  let iv = "12345678" in
  (* A long all-zero "ciphertext" decrypts to garbage whose last byte is
     essentially never valid padding; the open must raise the same
     exception whether the ciphertext is the whole string or a sub-range
     embedded in a larger buffer. *)
  let bogus = String.make 160 '\x00' in
  let len = String.length bogus in
  let embedded = "\x5a\x5a\x5a" ^ bogus ^ "\xa5" in
  List.iter
    (fun (what, f) ->
      Alcotest.check_raises
        (Printf.sprintf "corrupt padding (%s)" what)
        (Invalid_argument "Des.decrypt_cbc_sub: corrupt padding")
        (fun () -> ignore (f () : string)))
    [
      ("whole string", fun () -> Des.decrypt_cbc_sub ~iv k ~src:bogus ~pos:0 ~len);
      ("embedded", fun () -> Des.decrypt_cbc_sub ~iv k ~src:embedded ~pos:3 ~len);
    ]

(* --- The scalar kernel's CBC drivers ---

   [Des_kernel.cbc_encrypt] carries the chain in IP space and
   [Des_kernel.cbc_decrypt] runs blocks in pairs, so both are pinned to
   the bit-gather oracle at every block count 1..64 (odd counts leave
   the pair loop a single tail block), and the block loops must not
   allocate. *)

let test_kernel_cbc_every_count () =
  for nb = 1 to 64 do
    let k = Des.of_string (Printf.sprintf "kc%06d" nb) and rk = Des_ref.of_string (Printf.sprintf "kc%06d" nb) in
    let iv = Printf.sprintf "iv%06d" (nb * 7) in
    let what fmt = Printf.ksprintf (fun m -> Printf.sprintf "%d blocks: %s" nb m) fmt in
    (* [nb] blocks after padding, the tail length varying with [nb]. *)
    let msg = String.init ((8 * (nb - 1)) + (nb mod 8)) (fun i -> Char.chr (((i * 89) + nb) land 0xff)) in
    let ct = Des_ref.encrypt_cbc ~iv rk msg in
    check Alcotest.int (what "ciphertext length") (8 * nb) (String.length ct);
    check Alcotest.string (what "encrypt_cbc") (hex ct) (hex (Des.encrypt_cbc ~iv k msg));
    let dst = Bytes.make (String.length ct + 5) '\xee' in
    let wrote =
      Des.encrypt_cbc_into ~iv k ~src:msg ~src_pos:0 ~src_len:(String.length msg) ~dst
        ~dst_pos:5
    in
    check Alcotest.string (what "encrypt_cbc_into") (hex ct) (hex (Bytes.sub_string dst 5 wrote));
    (* The one-pass seal: the MD5-interleaved kernel hands the chain to
       the one-lane loop, which hands it to the padded final block. *)
    let _, one_pass = Fused.mac_and_encrypt ~mac_key:"k" ~des_key:k ~iv ~prefix_parts:[] msg in
    check Alcotest.string (what "one-pass seal") (hex ct) (hex one_pass);
    (* The two-block decrypt over all [nb] blocks (decrypt_cbc) and over
       the [nb - 1] before the final one (decrypt_cbc_sub, embedded). *)
    check Alcotest.string (what "decrypt_cbc") msg (Des.decrypt_cbc ~iv k ct);
    let buf = "\x5a\x5a\x5a" ^ ct ^ "\xa5" in
    check Alcotest.string (what "decrypt_cbc_sub") msg
      (Des.decrypt_cbc_sub ~iv k ~src:buf ~pos:3 ~len:(8 * nb));
    check Alcotest.string (what "oracle decrypt") msg (Des_ref.decrypt_cbc ~iv rk ct);
    (* Corrupting the padding byte's predecessor ciphertext byte (the
       IV's for one block) must fail with the parent's exact text. *)
    let bad_iv, bad_buf =
      if nb = 1 then (String.mapi (fun i c -> if i = 7 then Char.chr (Char.code c lxor 0x3c) else c) iv, buf)
      else
        (iv, String.mapi (fun i c -> if i = 3 + (8 * nb) - 9 then Char.chr (Char.code c lxor 0x3c) else c) buf)
    in
    check
      Alcotest.(result string string)
      (what "corrupt padding text")
      (Error "Des.decrypt_cbc_sub: corrupt padding")
      (decrypt_outcome (fun () -> Des.decrypt_cbc_sub ~iv:bad_iv k ~src:bad_buf ~pos:3 ~len:(8 * nb)))
  done

let prop_kernel_decrypt_embedded =
  QCheck.Test.make ~name:"two-block decrypt_cbc_sub = reference (embedded)" ~count:60
    QCheck.(triple key8 key8 (pair (int_bound 300) (int_bound 10)))
    (fun (key, iv, (msg_len, pad)) ->
      let msg = String.init msg_len (fun i -> Char.chr ((i * 37) land 0xff)) in
      let ct = Des_ref.encrypt_cbc ~iv (Des_ref.of_string key) msg in
      (* Embedded at an offset inside a larger buffer so the sub-range
         loads are exercised, not just pos = 0. *)
      let buf = String.make pad '\xaa' ^ ct ^ String.make pad '\xbb' in
      Des.decrypt_cbc_sub ~iv (Des.of_string key) ~src:buf ~pos:pad ~len:(String.length ct)
      = msg)

(* Minor-heap words [f] allocates, net of the measurement's own. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_kernel_allocation () =
  let k = Des.of_string "n0all0c!" and iv = "ivivivIV" in
  let src = String.init 1456 (fun i -> Char.chr (i land 0xff)) in
  let dst = Bytes.create 1464 and chain = Array.make 2 0 in
  let ct = Des.encrypt_cbc ~iv k src in
  let ks = Des_kernel.schedule "n0all0c!" in
  let blocks () = Des_kernel.cbc_encrypt ks chain src 0 182 dst 0 in
  (* The one-pass lone run: a fresh job and MAC context each call, built
     outside the measurement (a job runs once). *)
  let mid = Mac.prepare ~key:(String.make 16 'm') in
  let fresh () =
    let md5 = Mac.resume_md5 mid in
    Md5.update md5 "ten bytes!";
    (Des.cbc_job ~key:k ~iv ~src ~src_pos:0 ~src_len:1456 ~dst ~dst_pos:0, md5)
  in
  let one_pass () =
    let job, md5 = fresh () in
    let w0 = Gc.minor_words () in
    ignore (Des.encrypt_cbc_job_md5 job md5 : string);
    Gc.minor_words () -. w0
  in
  ignore (one_pass () : float);
  let into () =
    ignore
      (Des.encrypt_cbc_into ~iv k ~src ~src_pos:0 ~src_len:1456 ~dst ~dst_pos:0 : int)
  in
  let sub () = ignore (Des.decrypt_cbc_sub ~iv k ~src:ct ~pos:0 ~len:1464 : string) in
  let none () = () in
  List.iter (fun f -> f ()) [ blocks; into; sub; none ];
  let base = minor_words_of none in
  check (Alcotest.float 0.) "cbc_encrypt, 182 blocks: no minor words" 0.
    (minor_words_of blocks -. base);
  (* The 16-byte digest is its one allocation: three words and a header. *)
  check (Alcotest.float 0.) "one-pass job, 182 blocks + MD5: the digest only" 4.
    (one_pass () -. base);
  let w = minor_words_of into -. base in
  if w > 16. then Alcotest.failf "encrypt_cbc_into: %.0f minor words, want <= 16" w;
  (* The plaintext (1456 bytes: 182 words and a header) plus a few. *)
  let w = minor_words_of sub -. base in
  if w > 200. then Alcotest.failf "decrypt_cbc_sub, 1464 B: %.0f minor words, want <= 200" w

let test_kernel_two_chain_allocation () =
  (* The two-chain loop and the one-lane tail of the longer chain keep
     every block in registers: 182 + 100 blocks, no minor words. *)
  let ka = Des_kernel.schedule "ch41n0n3" and kb = Des_kernel.schedule "ch41nTw0" in
  let sa = String.make 1456 'a' and sb = String.make 800 'b' in
  let da = Bytes.create 1456 and db = Bytes.create 800 in
  let cha = Array.make 2 0 and chb = Array.make 2 0 in
  let pair () = Des_kernel.cbc_encrypt2 ka cha sa 0 da 0 182 kb chb sb 0 db 0 100 in
  let none () = () in
  List.iter (fun f -> f ()) [ pair; none ];
  check (Alcotest.float 0.) "cbc_encrypt2, 182 + 100 blocks: no minor words" 0.
    (minor_words_of pair -. minor_words_of none)

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

(* A midstate is a context frozen after a prefix (the MAC's is MD5 after
   the key): each resume copies it, so any number of resumes over the
   message give the one-shot digest of prefix ^ message. *)
let prop_midstate_resume_md5 =
  QCheck.Test.make ~name:"md5 midstate resume = one-shot" ~count:150
    QCheck.(triple arbitrary_bytes arbitrary_bytes int)
    (fun (prefix, msg, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let parts = slices_of rng msg in
      let mid = Md5.init () in
      Md5.update mid prefix;
      let resume () =
        let ctx = Md5.copy mid in
        List.iter (Md5.feed_slice ctx) parts;
        Md5.final ctx
      in
      let expected = Md5.digest (prefix ^ msg) in
      (* Resume twice: the midstate is not consumed, so both must agree. *)
      resume () = expected && resume () = expected)

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

let prop_mac_midstate =
  QCheck.Test.make ~name:"Mac midstate = compute_slices (all algorithms)" ~count:100
    QCheck.(triple arbitrary_bytes arbitrary_bytes int)
    (fun (key, msg, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let mid = Mac.prepare ~key in
      let parts = slices_of rng msg in
      let expected =
        Fbsr_oracles.Reference.mac ~key (List.map Fbsr_util.Slice.to_string parts)
      in
      Mac.compute_midstate mid parts = expected
      && Mac.compute_midstate mid parts = expected
      && Mac.verify_midstate mid parts ~expected:(Fbsr_util.Slice.of_string expected)
      (* Truncated wire MACs verify against the matching prefix. *)
      && Mac.verify_midstate mid parts
           ~expected:(Fbsr_util.Slice.v ~len:(String.length expected / 2) expected)
      &&
      (* A flipped bit in the expected MAC must be rejected. *)
      let tampered =
        String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) expected
      in
      not (Mac.verify_midstate mid parts ~expected:(Fbsr_util.Slice.of_string tampered)))

(* --- Hash kernel differential battery: fast kernels vs retained oracles ---

   [Md5_ref] is the pre-rewrite streaming implementation, retained
   verbatim as an oracle (the [Des_ref] pattern).  The unrolled kernel is
   pinned three ways: the oracle against the published RFC 1321 vectors,
   the fast kernel against the oracle over ragged lengths / split points /
   feed offsets, and the MAC constructions on top against re-derivations
   built from the oracle alone. *)

module Md5_ref = Fbsr_oracles.Md5_ref

let test_hash_ref_kats () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string ("ref " ^ input) expected (Md5_ref.hexdigest input))
    md5_vectors

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

let prop_md5_vs_oracle =
  QCheck.Test.make ~name:"md5 kernel = retained oracle (ragged lengths, all entry points)"
    ~count:300 QCheck.int
    (fun seed ->
      let rng = Fbsr_util.Rng.create seed in
      let msg = ragged_msg rng in
      let len = String.length msg in
      let expected = Md5_ref.digest msg in
      (* One-shot. *)
      Md5.digest msg = expected
      (* Streaming with a random split point. *)
      && (let cut = if len = 0 then 0 else Fbsr_util.Rng.int rng (len + 1) in
          let ctx = Md5.init () in
          Md5.update ctx (String.sub msg 0 cut);
          Md5.update ctx (String.sub msg cut (len - cut));
          Md5.final ctx = expected)
      (* [feed] from an offset inside a larger buffer, and slice feed. *)
      && (let pad = Fbsr_util.Rng.int rng 10 in
          let buf = String.make pad 'L' ^ msg ^ String.make pad 'R' in
          let ctx = Md5.init () in
          Md5.feed ctx buf pad len;
          Md5.final ctx = expected
          &&
          let ctx2 = Md5.init () in
          Md5.feed_slice ctx2 (Fbsr_util.Slice.v ~off:pad ~len buf);
          Md5.final ctx2 = expected)
      (* Multi-part convenience entry point. *)
      && Md5.digest_list [ msg; "|"; msg ] = Md5_ref.digest_list [ msg; "|"; msg ])

(* The step chain at every length up to four blocks: each tail length
   and both padding shapes, one-shot and fed a byte at a time. *)
let test_md5_every_length () =
  for n = 0 to 256 do
    let msg = String.init n (fun i -> Char.chr (((i * 131) + n) land 0xff)) in
    let expected = hex (Md5_ref.digest msg) in
    check Alcotest.string (Printf.sprintf "%d bytes" n) expected (hex (Md5.digest msg));
    let ctx = Md5.init () in
    String.iter (fun c -> Md5.update ctx (String.make 1 c)) msg;
    check Alcotest.string (Printf.sprintf "%d bytes, bytewise" n) expected (hex (Md5.final ctx))
  done

(* The MAC's own midstate, against the oracle too. *)
let prop_md5_midstate_vs_oracle =
  QCheck.Test.make ~name:"md5 midstate resume = oracle digest of prefix^msg" ~count:150
    QCheck.(triple arbitrary_bytes arbitrary_bytes int)
    (fun (prefix, msg, seed) ->
      let rng = Fbsr_util.Rng.create seed in
      let mid = Mac.prepare ~key:prefix in
      Mac.compute_midstate mid (slices_of rng msg) = Md5_ref.digest (prefix ^ msg))

(* RFC 2104 HMAC re-derived from the oracle alone. *)
let hmac_ref ~key parts =
  let block = Md5_ref.block_size in
  let key = if String.length key > block then Md5_ref.digest key else key in
  let key = key ^ String.make (block - String.length key) '\000' in
  let xor_pad byte =
    String.init block (fun i -> Char.chr (Char.code key.[i] lxor byte))
  in
  Md5_ref.digest_list [ xor_pad 0x5c; Md5_ref.digest_list (xor_pad 0x36 :: parts) ]

let prop_hmac_md5_vs_oracle =
  QCheck.Test.make ~name:"hmac-md5 = oracle-built HMAC" ~count:150
    QCheck.(pair arbitrary_bytes (small_list arbitrary_bytes))
    (fun (key, parts) ->
      Mac.hmac ~key parts = hmac_ref ~key parts
      && Mac.prefix ~key parts = Md5_ref.digest (String.concat "" (key :: parts)))

(* --- DES modes --- *)

let prop_cbc_roundtrip =
  QCheck.Test.make ~name:"CBC roundtrip" ~count:150 (QCheck.triple key8 key8 arbitrary_bytes)
    (fun (key, iv, msg) ->
      let k = Des.of_string key in
      Des.decrypt_cbc ~iv k (Des.encrypt_cbc ~iv k msg) = msg)

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

let test_cbc_iv_matters () =
  let k = Des.of_string "abcdefgh" in
  let msg = "same plaintext every time" in
  let c1 = Des.encrypt_cbc ~iv:"11111111" k msg in
  let c2 = Des.encrypt_cbc ~iv:"22222222" k msg in
  check Alcotest.bool "different IV, different ciphertext" true (c1 <> c2)

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

(* --- Fused single-pass MAC+encrypt (Section 5.3 optimization) --- *)

let prop_fused_equals_two_pass =
  QCheck.Test.make ~name:"fused = mac-then-encrypt" ~count:150
    (QCheck.triple key8 key8 arbitrary_bytes) (fun (key, iv, payload) ->
      let des_key = Des.of_string key in
      let prefix_parts = [ "conf"; "tstamp" ] in
      Fused.mac_and_encrypt ~mac_key:"the mac key!" ~des_key ~iv ~prefix_parts payload
      = Fused.mac_then_encrypt ~mac_key:"the mac key!" ~des_key ~iv ~prefix_parts
          payload)

(* The one-pass kernel against the two passes it replaces, over every
   residue of the payload length mod 64 and mod 8 and every partial-block
   fill of the resumed MD5 context: a MAC key of 0-127 bytes leaves 0-63
   bytes waiting.  The job writes into a buffer holding other bytes
   around its MAC slot and body; those must survive. *)
let one_pass_case (key, des_key, iv, prelude, payload) =
  let md5 = Mac.resume_md5 (Mac.prepare ~key) in
  Md5.update md5 prelude;
  let n = String.length payload and des_key = Des.of_string des_key in
  let body = Des.padded_length n in
  (* A 5-byte guard, the 16-byte MAC slot, 3 bytes, the body, 7 bytes. *)
  let buf = Bytes.init (5 + 16 + 3 + body + 7) (fun i -> Char.chr ((i * 151) land 0xff)) in
  let before = Bytes.copy buf in
  let blocks =
    Fused.run
      (Fused.job ~md5 ~key:des_key ~iv ~src:payload ~src_pos:0 ~src_len:n ~dst:buf
         ~dst_pos:24 ~mac_dst:buf ~mac_pos:5)
  in
  let mac = Mac.prefix ~key [ prelude; payload ] in
  let outside_untouched =
    Bytes.sub buf 0 5 = Bytes.sub before 0 5
    && Bytes.sub buf 21 3 = Bytes.sub before 21 3
    && Bytes.sub buf (24 + body) 7 = Bytes.sub before (24 + body) 7
  in
  blocks = body / 8
  && Bytes.sub_string buf 5 16 = mac
  && Bytes.sub_string buf 24 body = Des.encrypt_cbc ~iv des_key payload
  && outside_untouched

let one_pass_gen =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (return n) in
  let* key_len = int_bound 127 in
  let* key = bytes key_len in
  let* des_key = bytes 8 and* iv = bytes 8 in
  let* prelude_len = int_bound 20 in
  let* prelude = bytes prelude_len in
  let* n = int_bound 3000 in
  let+ payload = bytes n in
  (key, des_key, iv, prelude, payload)

let prop_one_pass_kernel =
  QCheck.Test.make ~name:"one-pass kernel = two-pass reference" ~count:400
    (QCheck.make one_pass_gen) one_pass_case

(* Every payload length mod 64 and mod 8, and every partial-block fill,
   not left to the draw: lengths 0-191 under a prefix key of 0-63 bytes
   (so fills 0-63 with no prelude), then keys leaving 16 and 0 bytes
   waiting before a prelude, at three longer lengths. *)
let test_one_pass_every_residue () =
  for n = 0 to 191 do
    let key_len = (n * 37) land 63 in
    let case =
      ( String.make key_len 'k',
        "d3sk3y!!",
        Printf.sprintf "iv%06d" n,
        "",
        String.init n (fun i -> Char.chr (((i * 29) + n) land 0xff)) )
    in
    if not (one_pass_case case) then Alcotest.failf "length %d, key %d bytes" n key_len
  done;
  List.iter
    (fun (key_len, n) ->
      let case =
        ( String.make key_len 'k',
          "d3sk3y!!",
          "initvect",
          "ten bytes!",
          String.init n (fun i -> Char.chr ((i * 7) land 0xff)) )
      in
      if not (one_pass_case case) then Alcotest.failf "length %d" n)
    [ (16, 64); (64, 64); (16, 1460); (64, 1460); (64, 2999) ]

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
      check Alcotest.string data expected (hex (Mac.hmac ~key [ data ])))
    cases

let test_prefix_mac_definition () =
  (* The paper's MAC is literally H(key | message). *)
  check Alcotest.string "prefix = digest of concat"
    (hex (Md5.digest ("secretkey" ^ "payload")))
    (hex (Mac.prefix ~key:"secretkey" [ "payload" ]))

let prop_mac_verify =
  QCheck.Test.make ~name:"mac verify accepts genuine, rejects tampered" ~count:200
    QCheck.(triple arbitrary_bytes arbitrary_bytes (int_bound 1000))
    (fun (key, msg, pos) ->
      let mid = Mac.prepare ~key in
      let verify msg ~expected =
        Mac.verify_midstate mid
          [ Fbsr_util.Slice.of_string msg ]
          ~expected:(Fbsr_util.Slice.of_string expected)
      in
      let mac = Mac.prefix ~key [ msg ] in
      verify msg ~expected:mac
      &&
      if String.length msg = 0 then true
      else begin
        let pos = pos mod String.length msg in
        let tampered = Bytes.of_string msg in
        Bytes.set tampered pos (Char.chr (Char.code msg.[pos] lxor 1));
        not (verify (Bytes.to_string tampered) ~expected:mac)
      end)

(* A wire MAC truncated to its first bytes (Section 5.3's header-overhead
   trade-off) verifies; one longer than the MAC does not. *)
let test_mac_truncate () =
  let mid = Mac.prepare ~key:"k" in
  let parts = [ Fbsr_util.Slice.of_string "m" ] in
  let mac = Mac.compute_midstate mid parts in
  check Alcotest.bool "truncate" true
    (Mac.verify_midstate mid parts ~expected:(Fbsr_util.Slice.v ~len:8 mac));
  check Alcotest.bool "too long" false
    (Mac.verify_midstate mid parts
       ~expected:(Fbsr_util.Slice.of_string (mac ^ String.make 83 '\000')))

(* --- Constant-time compare --- *)

let prop_ct_equal =
  QCheck.Test.make ~name:"ct equal agrees with (=)" ~count:300
    QCheck.(pair arbitrary_bytes arbitrary_bytes)
    (fun (a, b) -> Ct.equal a b = (a = b))

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
  let s = Rsa.sign key "a signed message" in
  check Alcotest.bool "verifies" true
    (Rsa.verify pub "a signed message" ~signature:s);
  check Alcotest.bool "wrong message" false
    (Rsa.verify pub "another message" ~signature:s);
  let tampered = Bytes.of_string s in
  Bytes.set tampered 10 (Char.chr (Char.code s.[10] lxor 1));
  check Alcotest.bool "tampered signature" false
    (Rsa.verify pub "a signed message" ~signature:(Bytes.to_string tampered));
  check Alcotest.bool "truncated signature" false
    (Rsa.verify pub "a signed message"
       ~signature:(String.sub s 0 (String.length s - 1)))

let test_rsa_wrong_key () =
  let rng = Fbsr_util.Rng.create 12 in
  let k1 = Rsa.generate rng ~bits:512 in
  let k2 = Rsa.generate rng ~bits:512 in
  let s = Rsa.sign k1 "msg" in
  check Alcotest.bool "other key rejects" false
    (Rsa.verify (Rsa.public_key k2) "msg" ~signature:s)

let prop_rsa_crt_consistent =
  (* public_op (private_op m) = m for m < n: validates the CRT path. *)
  QCheck.Test.make ~name:"RSA CRT private op inverts public op" ~count:20
    QCheck.(int_range 2 1_000_000)
    (fun m ->
      let rng = Fbsr_util.Rng.create 13 in
      let key = Rsa.generate rng ~bits:256 in
      let m = Fbsr_bignum.Nat.of_int m in
      Fbsr_bignum.Nat.equal m (Rsa.public_op (Rsa.public_key key) (Rsa.private_op key m)))

(* --- Pinned outputs ---
   Byte-exact outputs of the keying primitives, recorded before the bignum
   kernels were rewritten: a faster division, codec or Montgomery product
   must not change a single key, certificate or signature. *)

let md5_hex s = hex (Md5.digest s)

let pinned_key = lazy (Rsa.generate (Fbsr_util.Rng.create 19) ~bits:768)

let test_pinned_rsa_generate () =
  let pub = Rsa.public_key (Lazy.force pinned_key) in
  check Alcotest.string "modulus md5" "776e3149e3aea2e74bcc99cc8b01af55"
    (md5_hex (Fbsr_bignum.Nat.to_bytes_be pub.Rsa.n))

let test_pinned_rsa_sign () =
  let key = Lazy.force pinned_key in
  let s = Rsa.sign key "pinned message" in
  check Alcotest.string "signature md5" "e4509eeb28833c3c4d46b8e014519604" (md5_hex s);
  check Alcotest.bool "verifies" true
    (Rsa.verify (Rsa.public_key key) "pinned message" ~signature:s)

let test_pinned_testbed_ca () =
  let tb = Fbsr_fbs_ip.Testbed.create () in
  let ca = Fbsr_cert.Authority.public (Fbsr_fbs_ip.Testbed.authority tb) in
  check Alcotest.string "CA modulus md5" "ae7de10292d5627a9178de4b0ac31d87"
    (md5_hex (Fbsr_bignum.Nat.to_bytes_be ca.Rsa.n))

let test_pinned_dh_shared () =
  let g = Lazy.force Dh.oakley2 in
  let rng = Fbsr_util.Rng.create 29 in
  let a = Dh.gen_private g rng and b = Dh.gen_private g rng in
  check Alcotest.string "oakley2 shared md5" "fc48f6ba54bc927314acc79986a8389a"
    (md5_hex (Dh.shared_bytes g a (Dh.public g b)))

let test_pinned_bbs () =
  let bbs = Bbs.create ~modulus_bits:256 (Fbsr_util.Rng.create 31) ~seed:"pinned seed" in
  check Alcotest.string "16 bytes" "5ab19631ebbe4fcf1e9e427d556c9fb5" (hex (Bbs.bytes bbs 16))

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
      ( "des",
        [
          Alcotest.test_case "known answers" `Quick test_des_kat;
          Alcotest.test_case "variable-plaintext KAT table" `Quick
            test_des_variable_plaintext_kat;
          Alcotest.test_case "variable-key KAT table" `Quick test_des_variable_key_kat;
          Alcotest.test_case "Rivest chain (Monte-Carlo-lite)" `Quick
            test_des_rivest_chain;
          Alcotest.test_case "CBC KATs" `Quick test_des_cbc_kats;
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
          qtest prop_differential_cbc;
          qtest prop_differential_into_sub;
          qtest prop_schedule_oracle;
          Alcotest.test_case "schedule = oracle (weak, semi-weak, single-bit keys)"
            `Quick test_schedule_oracle_special_keys;
          qtest prop_schedule_ignores_parity;
        ] );
      ( "des-kernel",
        [
          Alcotest.test_case "CBC = oracle at 1..64 blocks" `Quick
            test_kernel_cbc_every_count;
          qtest prop_kernel_decrypt_embedded;
          Alcotest.test_case "block loops do not allocate" `Quick test_kernel_allocation;
          Alcotest.test_case "two-chain encrypt does not allocate" `Quick
            test_kernel_two_chain_allocation;
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
          qtest prop_cbc_jobs_oracle;
          qtest prop_decrypt_sub_oracle;
          Alcotest.test_case "decrypt_cbc_sub = scalar at 1..256 blocks" `Quick
            test_bitslice_decrypt_every_length;
        ] );
      ( "midstates",
        [
          qtest prop_midstate_resume_md5;
          qtest prop_hash_copy_independent;
          qtest prop_mac_midstate;
        ] );
      ( "hash-differential",
        [
          Alcotest.test_case "oracle KATs (RFC 1321)" `Quick
            test_hash_ref_kats;
          qtest prop_md5_vs_oracle;
          Alcotest.test_case "md5 = oracle at every length 0..256" `Quick
            test_md5_every_length;
          qtest prop_md5_midstate_vs_oracle;
          qtest prop_hmac_md5_vs_oracle;
        ] );
      ( "fused",
        [
          qtest prop_fused_equals_two_pass;
          qtest prop_one_pass_kernel;
          Alcotest.test_case "one-pass kernel at every residue" `Quick
            test_one_pass_every_residue;
        ] );
      ( "des-modes",
        [
          Alcotest.test_case "FIPS 81 CBC sample" `Quick test_cbc_fips81_sample;
          Alcotest.test_case "CBC IV matters" `Quick test_cbc_iv_matters;
          Alcotest.test_case "unpad rejects corrupt padding" `Quick test_unpad_corrupt;
          qtest prop_cbc_roundtrip;
          qtest prop_cbc_tamper_detected_by_length;
        ] );
      ( "mac",
        [
          Alcotest.test_case "HMAC-MD5 RFC 2202" `Quick test_hmac_md5_rfc2202;
          Alcotest.test_case "prefix MAC definition" `Quick test_prefix_mac_definition;
          Alcotest.test_case "truncate" `Quick test_mac_truncate;
          qtest prop_mac_verify;
        ] );
      ("ct", [ qtest prop_ct_equal ]);
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
      ( "pinned",
        [
          Alcotest.test_case "Rsa.generate 768 modulus" `Quick test_pinned_rsa_generate;
          Alcotest.test_case "Rsa.sign 768" `Quick test_pinned_rsa_sign;
          Alcotest.test_case "Testbed CA key" `Quick test_pinned_testbed_ca;
          Alcotest.test_case "Dh.shared_bytes oakley2" `Quick test_pinned_dh_shared;
          Alcotest.test_case "Bbs.bytes" `Quick test_pinned_bbs;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
          qtest prop_rsa_crt_consistent;
        ] );
    ]
