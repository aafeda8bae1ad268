(* Tests for the fbsr_util substrate: hex, byte IO, CRC-32, Internet
   checksum, PRNGs, statistics, byte queue, the priority queue and the
   table of pending work. *)

open Fbsr_util

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let arbitrary_bytes = QCheck.string_gen (QCheck.Gen.char_range '\000' '\255')

(* --- Hex --- *)

let test_hex_known () =
  check Alcotest.string "encode" "00ff10ab" (Hex.encode "\x00\xff\x10\xab");
  check Alcotest.string "decode" "\x00\xff\x10\xab" (Hex.decode "00ff10ab");
  check Alcotest.string "uppercase accepted" "\xde\xad" (Hex.decode "DEAD");
  check Alcotest.string "empty" "" (Hex.encode "");
  check Alcotest.string "spaces ignored" "\xde\xad\xbe\xef" (Hex.decode "de ad\nbe ef")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd-length input")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 arbitrary_bytes (fun s ->
      Hex.decode (Hex.encode s) = s)

(* --- Byte writer / reader --- *)

let test_byte_io_fixed () =
  let w = Byte_writer.create () in
  Byte_writer.u8 w 0xab;
  Byte_writer.u16 w 0x1234;
  Byte_writer.u32 w 0xdeadbeefl;
  Byte_writer.u64 w 0x0123456789abcdefL;
  Byte_writer.bytes w "tail";
  let s = Byte_writer.contents w in
  check Alcotest.int "length" (1 + 2 + 4 + 8 + 4) (String.length s);
  let r = Byte_reader.of_string s in
  check Alcotest.int "u8" 0xab (Byte_reader.u8 r);
  check Alcotest.int "u16" 0x1234 (Byte_reader.u16 r);
  check Alcotest.int32 "u32" 0xdeadbeefl (Byte_reader.u32 r);
  check Alcotest.int64 "u64" 0x0123456789abcdefL (Byte_reader.u64 r);
  check Alcotest.string "rest" "tail" (Byte_reader.rest r);
  check Alcotest.int "remaining" 0 (Byte_reader.remaining r)

let test_byte_reader_truncated () =
  let r = Byte_reader.of_string "ab" in
  Alcotest.check_raises "u32 truncated" Byte_reader.Truncated (fun () ->
      ignore (Byte_reader.u32 r));
  (* The failed read must not consume anything. *)
  check Alcotest.int "position unchanged" 0 (Byte_reader.position r);
  check Alcotest.int "u16 ok" 0x6162 (Byte_reader.u16 r)

let test_byte_reader_slice () =
  let r = Byte_reader.of_string ~pos:2 ~len:3 "XXabcYY" in
  check Alcotest.string "slice" "abc" (Byte_reader.rest r)

let prop_byte_io_roundtrip =
  QCheck.Test.make ~name:"writer/reader roundtrip" ~count:200
    QCheck.(
      triple (list (int_bound 255)) (list (int_bound 0xffff)) arbitrary_bytes)
    (fun (u8s, u16s, tail) ->
      let w = Byte_writer.create () in
      List.iter (Byte_writer.u8 w) u8s;
      List.iter (Byte_writer.u16 w) u16s;
      Byte_writer.bytes w tail;
      let r = Byte_reader.of_string (Byte_writer.contents w) in
      let u8s' = List.map (fun _ -> Byte_reader.u8 r) u8s in
      let u16s' = List.map (fun _ -> Byte_reader.u16 r) u16s in
      u8s' = u8s && u16s' = u16s && Byte_reader.rest r = tail)

(* --- CRC-32 --- *)

let test_crc32_known () =
  check Alcotest.int "check value" 0xcbf43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "")

let prop_crc32_incremental =
  QCheck.Test.make ~name:"crc32 incremental = whole" ~count:200
    QCheck.(pair arbitrary_bytes arbitrary_bytes)
    (fun (a, b) ->
      let whole = Crc32.string (a ^ b) in
      let inc = Crc32.update (Crc32.update 0 a 0 (String.length a)) b 0 (String.length b) in
      whole = inc)

let test_crc32_int_helpers () =
  let v = 0x12345678 in
  let s = "\x12\x34\x56\x78" in
  check Alcotest.int "int32 = bytes" (Crc32.string s) (Crc32.update_int32 0 v);
  let v64 = 0x0102030405060708L in
  let s64 = "\x01\x02\x03\x04\x05\x06\x07\x08" in
  check Alcotest.int "int64 = bytes" (Crc32.string s64) (Crc32.update_int64 0 v64)

(* The CRC against its byte-at-a-time oracle: every helper, every
   range, every starting register. *)
let prop_crc32_oracle =
  QCheck.Test.make ~name:"crc32 = oracle (update, byte, int32, int64)" ~count:500
    QCheck.(quad arbitrary_bytes (pair small_nat small_nat) (int_bound 0xffffffff) int64)
    (fun (s, (a, b), crc, v64) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n = pos then 0 else b mod (n - pos + 1) in
      let v = Int64.to_int v64 in
      Crc32.update crc s pos len = Fbsr_oracles.Net_ref.crc32_update crc s pos len
      && Crc32.update_byte crc v = Fbsr_oracles.Net_ref.crc32_update_byte crc v
      && Crc32.update_int32 crc v = Fbsr_oracles.Net_ref.crc32_update_int32 crc v
      && Crc32.update_int64 crc v64 = Fbsr_oracles.Net_ref.crc32_update_int64 crc v64
      && Crc32.string s = Fbsr_oracles.Net_ref.crc32_update 0 s 0 n)

(* --- Internet checksum --- *)

(* The word-wise sum against the byte-at-a-time oracle, over odd and even
   offsets and lengths (every residue mod 8, so each tail of the 8-byte
   loop runs) and running sums, folded or not. *)
let prop_checksum_oracle =
  QCheck.Test.make ~name:"checksum sum = oracle (any pos, len, acc)" ~count:1000
    QCheck.(
      quad
        (string_gen_of_size Gen.(int_bound 1600) Gen.char)
        (int_bound 1600) (int_bound 1600)
        (oneof [ int_bound 0xffff; int_bound 0xfffffff; always 0 ]))
    (fun (s, a, b, acc) ->
      let n = String.length s in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Inet_checksum.sum ~acc s pos len = Fbsr_oracles.Net_ref.checksum_sum ~acc s pos len
      && Inet_checksum.sum s pos len = Fbsr_oracles.Net_ref.checksum_sum s pos len
      && Inet_checksum.string s = Fbsr_oracles.Net_ref.checksum_string s)

let test_checksum_edges () =
  let ref_sum = Fbsr_oracles.Net_ref.checksum_sum in
  (* All-ones words fold to 0xffff, never to 0; all-zero to 0. *)
  List.iter
    (fun n ->
      let ones = String.make n '\xff' and zeros = String.make n '\000' in
      check Alcotest.int (Printf.sprintf "ones %d" n) (ref_sum ones 0 n)
        (Inet_checksum.sum ones 0 n);
      check Alcotest.int (Printf.sprintf "zeros %d" n) (ref_sum zeros 0 n)
        (Inet_checksum.sum zeros 0 n);
      check Alcotest.int (Printf.sprintf "ones %d acc 0xffff" n)
        (ref_sum ~acc:0xffff ones 0 n)
        (Inet_checksum.sum ~acc:0xffff ones 0 n))
    [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 1460; 1461; 65536 ];
  Alcotest.check_raises "range past the end" (Invalid_argument "Inet_checksum.sum")
    (fun () -> ignore (Inet_checksum.sum "abc" 2 2 : int));
  Alcotest.check_raises "crc range past the end" (Invalid_argument "Crc32.update")
    (fun () -> ignore (Crc32.update 0 "abc" 2 2 : int))


let test_checksum_rfc1071 () =
  (* RFC 1071 example data: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, ck 220d *)
  let data = Hex.decode "0001f203f4f5f6f7" in
  check Alcotest.int "checksum" (lnot 0xddf2 land 0xffff) (Inet_checksum.string data)

let prop_checksum_verify =
  QCheck.Test.make ~name:"checksum verifies and detects flips" ~count:200
    QCheck.(pair arbitrary_bytes small_nat)
    (fun (s, pos) ->
      QCheck.assume (String.length s >= 2 && String.length s mod 2 = 0);
      (* Append the checksum and verify. *)
      let ck = Inet_checksum.string s in
      let full = s ^ String.init 2 (fun i -> Char.chr ((ck lsr (8 * (1 - i))) land 0xff)) in
      let verifies s = Inet_checksum.sum s 0 (String.length s) = 0xffff in
      if not (verifies full) then false
      else begin
        let pos = pos mod String.length s in
        let b = Bytes.of_string full in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
        (* One's-complement sums can miss 0x0000 <-> 0xffff flips only;
           a 0x5a xor is always detected. *)
        not (verifies (Bytes.to_string b))
      end)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 50 do
    check Alcotest.int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done;
  let c = Rng.create 124 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1_000_000 <> Rng.int c 1_000_000 then differs := true
  done;
  check Alcotest.bool "different seed differs" true !differs

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_range =
  QCheck.Test.make ~name:"rng int_range inclusive" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, extra) ->
      let hi = lo + extra in
      let rng = Rng.create seed in
      let v = Rng.int_range rng lo hi in
      v >= lo && v <= hi)

let test_rng_distributions () =
  let rng = Rng.create 42 in
  for _ = 1 to 100 do
    let e = Rng.exponential rng 5.0 in
    check Alcotest.bool "exponential positive" true (e >= 0.0);
    let p = Rng.pareto rng ~shape:1.5 ~scale:10.0 in
    check Alcotest.bool "pareto >= scale" true (p >= 10.0);
    let f = Rng.float rng 3.0 in
    check Alcotest.bool "float in range" true (f >= 0.0 && f < 3.0)
  done

let test_rng_choose_weighted () =
  let rng = Rng.create 1 in
  (* A zero-weight option must never be chosen. *)
  for _ = 1 to 200 do
    let v = Rng.choose_weighted rng [ (0.0, `Never); (1.0, `Always) ] in
    check Alcotest.bool "never zero-weight" true (v = `Always)
  done

let test_rng_bytes () =
  let rng = Rng.create 9 in
  let s = Rng.bytes rng 100 in
  check Alcotest.int "length" 100 (String.length s);
  (* Not all equal (astronomically unlikely). *)
  check Alcotest.bool "not constant" true
    (String.exists (fun c -> c <> s.[0]) s)

(* --- Lcg --- *)

let test_lcg () =
  let a = Lcg.create 7 and b = Lcg.create 7 in
  for _ = 1 to 20 do
    check Alcotest.int "deterministic" (Lcg.next_u32 a) (Lcg.next_u32 b)
  done;
  let block = Lcg.next_block a 10 in
  check Alcotest.int "block length" 10 (String.length block)

let test_lcg_spread () =
  (* The high 32 bits should not obviously cycle over a small sample. *)
  let l = Lcg.create 1 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    Hashtbl.replace seen (Lcg.next_u32 l) ()
  done;
  check Alcotest.bool "mostly distinct" true (Hashtbl.length seen > 990)

(* --- Stats --- *)

let test_stats_summary () =
  let s = Stats.summary [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max;
  check (Alcotest.float 1e-9) "total" 10.0 s.Stats.total;
  check Alcotest.int "count" 4 s.Stats.count

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p90" 90.0 (Stats.percentile xs 90.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile xs 100.0)

let prop_stats_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone and ends at 1" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let cdf = Stats.cdf (Array.of_list xs) in
      let rec monotone = function
        | (v1, f1) :: ((v2, f2) :: _ as rest) ->
            v1 < v2 && f1 <= f2 && monotone rest
        | _ -> true
      in
      monotone cdf
      && match List.rev cdf with (_, f) :: _ -> abs_float (f -. 1.0) < 1e-9 | [] -> false)

let test_stats_log_histogram () =
  let h = Stats.log_histogram ~base:2.0 [| 1.0; 2.0; 3.0; 4.0; 5.0; 100.0 |] in
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 h.Stats.buckets in
  check Alcotest.int "all samples bucketed" 6 total

let test_stats_bin_count () =
  let bins = Stats.bin_count ~bin:10.0 ~t_end:30.0 [ 1.0; 5.0; 15.0; 25.0; 29.9; 35.0 ] in
  check Alcotest.(list int) "bins" [ 2; 1; 2 ] (Array.to_list bins)

(* --- Byte_queue --- *)

let prop_byte_queue_model =
  (* Model-based test: a byte queue behaves like a string under push /
     drop / read. *)
  QCheck.Test.make ~name:"byte queue = string model" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 20)
        (pair (string_gen_of_size (Gen.int_range 0 40) Gen.char) (int_bound 30)))
    (fun ops ->
      let q = Byte_queue.create () in
      let model = ref "" in
      List.for_all
        (fun (push, dropn) ->
          Byte_queue.push q push;
          model := !model ^ push;
          let dropn = min dropn (String.length !model) in
          Byte_queue.drop q dropn;
          model := String.sub !model dropn (String.length !model - dropn);
          Byte_queue.length q = String.length !model
          &&
          let len = String.length !model in
          let off = if len = 0 then 0 else len / 3 in
          let n = len - off in
          Byte_queue.read q ~off ~len:n = String.sub !model off n)
        ops)

let test_byte_queue_errors () =
  let q = Byte_queue.create () in
  Byte_queue.push q "hello";
  Alcotest.check_raises "drop too much"
    (Invalid_argument "Byte_queue.drop: more than length") (fun () ->
      Byte_queue.drop q 6);
  Alcotest.check_raises "read out of bounds"
    (Invalid_argument "Byte_queue.read: out of bounds") (fun () ->
      ignore (Byte_queue.read q ~off:3 ~len:3))

(* --- Chart --- *)

let test_chart_bar () =
  check Alcotest.string "empty" "     " (Chart.bar 5 0.0);
  check Alcotest.string "full" "#####" (Chart.bar 5 1.0);
  check Alcotest.string "half" "##   " (Chart.bar 5 0.5);
  (* Out-of-range fractions are clamped. *)
  check Alcotest.string "clamped high" "#####" (Chart.bar 5 7.0);
  check Alcotest.string "clamped low" "     " (Chart.bar 5 (-1.0))

let test_chart_renders () =
  (* Smoke: both chart kinds produce non-empty output and never raise. *)
  let buf = Buffer.create 256 in
  let ppf = Fmt.with_buffer buf in
  Chart.hbar ppf [ ("alpha", 10.0); ("beta", 3.0) ];
  Chart.timeseries ppf ~x_label:"t" ~y_label:"v"
    (Array.init 100 (fun i -> float_of_int (i mod 17)));
  Fmt.flush ppf ();
  let out = Buffer.contents buf in
  check Alcotest.bool "hbar drew" true
    (String.length out > 0
    && String.split_on_char '\n' out
       |> List.exists (fun l -> String.length l > 0 && String.contains l '#'));
  check Alcotest.bool "series drew" true (String.contains out '*');
  (* Degenerate inputs. *)
  Chart.timeseries ppf ~x_label:"t" ~y_label:"v" [||];
  Chart.hbar ppf []

(* --- Pqueue --- *)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) priorities;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check Alcotest.(list string) "FIFO among equal priorities" [ "a"; "b"; "c" ] order


(* --- Pending --- *)

(* Shuffled deadlines (repeats allowed): after [expire] at each deadline
   plus a half, exactly the entries due by then are gone, and the rest
   still leave the table oldest first. *)
let prop_pending_deadline_order =
  QCheck.Test.make ~name:"entries expire in deadline order" ~count:200
    QCheck.(list (int_bound 50))
    (fun deadlines ->
      let t = Pending.create () in
      List.iteri (fun i d -> Pending.add t i d ~deadline:(float_of_int d)) deadlines;
      let keys = List.mapi (fun i d -> (i, d)) deadlines in
      List.for_all
        (fun now ->
          Pending.expire t ~now:(float_of_int now +. 0.5);
          List.for_all (fun (i, d) -> Pending.mem t i = (d > now)) keys
          && Pending.length t = List.length (List.filter (fun (_, d) -> d > now) keys))
        (List.sort_uniq compare deadlines)
      && Pending.length t = 0)

let test_pending_left_early () =
  (* Entries that leave before their deadline, one live at a time (a
     reassembly that completes, say): their heap items hold nothing and
     the heap is rebuilt without them, so the words the table retains do
     not grow with the entries that passed through it. *)
  let t = Pending.create () in
  for i = 1 to 100_000 do
    Pending.add t i (string_of_int i) ~deadline:(1000.0 +. float_of_int i);
    if i > 1 then ignore (Pending.remove t (i - 1))
  done;
  check Alcotest.int "one entry left" 1 (Pending.length t);
  let words = Obj.reachable_words (Obj.repr t) in
  if words > 2_000 then
    Alcotest.failf "table retains %d words after 100 000 entries left early" words;
  Pending.expire t ~now:1e9;
  check Alcotest.int "empty" 0 (Pending.length t)

let test_pending_removed_keys () =
  let t = Pending.create () in
  for i = 0 to 9 do
    Pending.add t i (Printf.sprintf "old %d" i) ~deadline:(float_of_int (10 + i))
  done;
  check Alcotest.(option string) "removed" (Some "old 3") (Pending.remove t 3);
  check Alcotest.(option string) "removed" (Some "old 7") (Pending.remove t 7);
  check Alcotest.(option string) "removed twice" None (Pending.remove t 7);
  (* Key 3 comes back, newest, due long after its old deadline; key 5 is
     replaced in place of a remove. *)
  Pending.add t 3 "new 3" ~deadline:100.0;
  Pending.add t 5 "new 5";
  Pending.expire t ~now:50.0;
  check Alcotest.(option string) "the old deadline does not expire the new entry"
    (Some "new 3") (Pending.find t 3);
  check Alcotest.(option string) "a replaced entry loses its deadline" (Some "new 5")
    (Pending.find t 5);
  check Alcotest.int "the rest expired" 2 (Pending.length t);
  Pending.add t 8 "new 8";
  let rec drain acc =
    match Pending.pop_oldest t with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  check Alcotest.(list string) "evicted oldest first, removed keys never"
    [ "new 3"; "new 5"; "new 8" ] (drain []);
  Pending.expire t ~now:1000.0;
  check Alcotest.int "empty" 0 (Pending.length t)

let () =
  Alcotest.run "util"
    [
      ( "hex",
        [
          Alcotest.test_case "known values" `Quick test_hex_known;
          Alcotest.test_case "errors" `Quick test_hex_errors;
          qtest prop_hex_roundtrip;
        ] );
      ( "byte-io",
        [
          Alcotest.test_case "fixed sequence" `Quick test_byte_io_fixed;
          Alcotest.test_case "truncated" `Quick test_byte_reader_truncated;
          Alcotest.test_case "slice" `Quick test_byte_reader_slice;
          qtest prop_byte_io_roundtrip;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known" `Quick test_crc32_known;
          Alcotest.test_case "int helpers" `Quick test_crc32_int_helpers;
          qtest prop_crc32_incremental;
          qtest prop_crc32_oracle;
        ] );
      ( "inet-checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071;
          Alcotest.test_case "folds and ranges" `Quick test_checksum_edges;
          qtest prop_checksum_verify;
          qtest prop_checksum_oracle;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "distributions" `Quick test_rng_distributions;
          Alcotest.test_case "choose_weighted" `Quick test_rng_choose_weighted;
          Alcotest.test_case "bytes" `Quick test_rng_bytes;
          qtest prop_rng_int_bounds;
          qtest prop_rng_range;
        ] );
      ( "lcg",
        [
          Alcotest.test_case "deterministic + block" `Quick test_lcg;
          Alcotest.test_case "spread" `Quick test_lcg_spread;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "log histogram" `Quick test_stats_log_histogram;
          Alcotest.test_case "bin count" `Quick test_stats_bin_count;
          qtest prop_stats_cdf_monotone;
        ] );
      ( "byte-queue",
        [
          Alcotest.test_case "errors" `Quick test_byte_queue_errors;
          qtest prop_byte_queue_model;
        ] );
      ( "chart",
        [
          Alcotest.test_case "bar" `Quick test_chart_bar;
          Alcotest.test_case "renders" `Quick test_chart_renders;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
          qtest prop_pqueue_sorted;
        ] );
      ( "pending",
        [
          qtest prop_pending_deadline_order;
          Alcotest.test_case "removed keys never expire or evict" `Quick
            test_pending_removed_keys;
          Alcotest.test_case "entries that leave early leave nothing" `Quick
            test_pending_left_early;
        ] );
    ]
