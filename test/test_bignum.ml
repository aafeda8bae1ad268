(* Tests for the arbitrary-precision naturals underlying Diffie-Hellman and
   RSA: ring laws, division invariants, Montgomery exponentiation, modular
   inverse, primality, and the division, codec and Montgomery kernels
   against the [Nat_ref] oracle at key sizes. *)

open Fbsr_bignum
module Nat_ref = Fbsr_oracles.Nat_ref

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

let nat = Alcotest.testable (Fmt.of_to_string Nat.to_hex) Nat.equal

(* Generator for naturals of up to ~256 bits. *)
let gen_nat =
  QCheck.Gen.(
    map
      (fun bytes -> Nat.of_bytes_be (String.concat "" (List.map (String.make 1) bytes)))
      (list_size (int_range 0 32) (char_range '\000' '\255')))

let arb_nat = QCheck.make ~print:Nat.to_hex gen_nat

let gen_small = QCheck.Gen.(map Nat.of_int (int_range 0 1_000_000))
let arb_small = QCheck.make ~print:Nat.to_hex gen_small

(* --- Conversions --- *)

let test_of_int () =
  check nat "zero" Nat.zero (Nat.of_int 0);
  check nat "one" Nat.one (Nat.of_int 1);
  check Alcotest.(option int) "roundtrip" (Some 123456789)
    (Nat.to_int_opt (Nat.of_int 123456789));
  check Alcotest.(option int) "max_int" (Some max_int) (Nat.to_int_opt (Nat.of_int max_int));
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)))

let test_hex () =
  check Alcotest.string "to_hex" "deadbeef" (Nat.to_hex (Nat.of_hex "deadbeef"));
  check Alcotest.string "odd digits" "abc" (Nat.to_hex (Nat.of_hex "abc"));
  check Alcotest.string "zero" "0" (Nat.to_hex Nat.zero);
  check nat "leading zeros" (Nat.of_hex "ff") (Nat.of_hex "00000000ff")

let test_decimal () =
  check Alcotest.string "decimal" "0" (Nat.to_string Nat.zero);
  check Alcotest.string "decimal" "123456789012345678901234567890"
    (Nat.to_string (Nat.of_hex "18ee90ff6c373e0ee4e3f0ad2"))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip with padding" ~count:200 arb_nat (fun a ->
      let width = ((Nat.bit_length a + 7) / 8) + 3 in
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be ~length:width a)))

let test_to_bytes_too_narrow () =
  Alcotest.check_raises "too narrow"
    (Invalid_argument "Nat.to_bytes_be: value too wide") (fun () ->
      ignore (Nat.to_bytes_be ~length:1 (Nat.of_hex "10000")))

(* --- Ring laws --- *)

let prop_add_commutative =
  QCheck.Test.make ~name:"a+b = b+a" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_mul_commutative =
  QCheck.Test.make ~name:"a*b = b*a" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_distributive =
  QCheck.Test.make ~name:"(a+b)*c = ac+bc" ~count:200
    (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
      Nat.equal (Nat.mul (Nat.add a b) c) (Nat.add (Nat.mul a c) (Nat.mul b c)))

let prop_add_sub =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_small_agrees_with_int =
  QCheck.Test.make ~name:"small arithmetic agrees with int" ~count:500
    QCheck.(pair (int_range 0 100000) (int_range 1 100000))
    (fun (a, b) ->
      let na = Nat.of_int a and nb = Nat.of_int b in
      Nat.to_int_opt (Nat.add na nb) = Some (a + b)
      && Nat.to_int_opt (Nat.mul na nb) = Some (a * b)
      && Nat.to_int_opt (Nat.div na nb) = Some (a / b)
      && Nat.to_int_opt (Nat.rem na nb) = Some (a mod b))

(* --- Division --- *)

let prop_divmod_invariant =
  QCheck.Test.make ~name:"a = q*b + r, r < b" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let test_div_by_zero () =
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

(* --- Shifts and bits --- *)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift left then right" ~count:200
    QCheck.(pair arb_nat (int_range 0 100))
    (fun (a, k) -> Nat.equal a (Nat.shift_right (Nat.shift_left a k) k))

let prop_shift_is_mul =
  QCheck.Test.make ~name:"shift_left = mul by 2^k" ~count:200
    QCheck.(pair arb_nat (int_range 0 64))
    (fun (a, k) ->
      Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.shift_left Nat.one k)))

let test_bit_length () =
  check Alcotest.int "0" 0 (Nat.bit_length Nat.zero);
  check Alcotest.int "1" 1 (Nat.bit_length Nat.one);
  check Alcotest.int "255" 8 (Nat.bit_length (Nat.of_int 255));
  check Alcotest.int "256" 9 (Nat.bit_length (Nat.of_int 256));
  check Alcotest.int "2^100" 101 (Nat.bit_length (Nat.shift_left Nat.one 100))

let prop_testbit =
  QCheck.Test.make ~name:"testbit matches shift" ~count:200
    QCheck.(pair arb_nat (int_range 0 120))
    (fun (a, i) ->
      Nat.testbit a i = not (Nat.is_zero (Nat.rem (Nat.shift_right a i) Nat.two)))

(* --- Modular exponentiation --- *)

let prop_mod_pow_vs_naive =
  QCheck.Test.make ~name:"Montgomery mod_pow = naive" ~count:50
    QCheck.(triple arb_small arb_small arb_small)
    (fun (base, e, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      (* Force odd modulus to exercise the Montgomery path. *)
      let m = if Nat.testbit m 0 then m else Nat.add m Nat.one in
      Nat.equal (Nat.mod_pow base e m) (Nat_ref.mod_pow base e m))

let prop_mod_pow_even_modulus =
  QCheck.Test.make ~name:"mod_pow handles even modulus" ~count:50
    QCheck.(triple arb_small arb_small arb_small)
    (fun (base, e, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      let m = if Nat.testbit m 0 then Nat.add m Nat.one else m in
      Nat.equal (Nat.mod_pow base e m) (Nat_ref.mod_pow base e m))

let test_fermat () =
  (* a^(p-1) = 1 mod p for prime p not dividing a. *)
  let p = Nat.of_int 1_000_000_007 in
  List.iter
    (fun a ->
      let r = Nat.mod_pow (Nat.of_int a) (Nat.sub p Nat.one) p in
      check Alcotest.bool "fermat" true (Nat.is_one r))
    [ 2; 3; 12345; 999999937 ]

let test_mod_pow_large () =
  (* 2^(2^16) mod a 128-bit odd modulus, cross-checked with the oracle's naive
     square-and-reduce loop. *)
  let m = Nat.of_hex "f0000000000000000000000000000001" in
  let e = Nat.shift_left Nat.one 16 in
  check nat "large modexp" (Nat_ref.mod_pow Nat.two e m) (Nat.mod_pow Nat.two e m)

(* --- Modular inverse and gcd --- *)

let prop_mod_inv =
  QCheck.Test.make ~name:"a * inv(a) = 1 mod m" ~count:200
    QCheck.(pair arb_small arb_small)
    (fun (a, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_zero (Nat.rem a m)));
      QCheck.assume (Nat.is_one (Nat.gcd a m));
      let inv = Nat.mod_inv a m in
      Nat.is_one (Nat.rem (Nat.mul (Nat.rem a m) inv) m))

let test_mod_inv_no_inverse () =
  Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (Nat.mod_inv (Nat.of_int 6) (Nat.of_int 9)))

let prop_gcd =
  QCheck.Test.make ~name:"gcd divides both" ~count:200 (QCheck.pair arb_small arb_small)
    (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero a) || not (Nat.is_zero b));
      let g = Nat.gcd a b in
      (Nat.is_zero a || Nat.is_zero (Nat.rem a g))
      && (Nat.is_zero b || Nat.is_zero (Nat.rem b g)))

(* --- Primality --- *)

let test_known_primes () =
  let rng = Fbsr_util.Rng.create 55 in
  List.iter
    (fun p ->
      check Alcotest.bool (string_of_int p) true
        (Nat.is_probably_prime rng (Nat.of_int p)))
    [ 2; 3; 5; 7; 104729; 1_000_000_007; 2147483647 ]

let test_known_composites () =
  let rng = Fbsr_util.Rng.create 56 in
  (* Includes Carmichael numbers, which fool the Fermat test but not
     Miller-Rabin. *)
  List.iter
    (fun n ->
      check Alcotest.bool (string_of_int n) false
        (Nat.is_probably_prime rng (Nat.of_int n)))
    [ 1; 4; 561; 1105; 6601; 41041; 104730 ]

let test_mersenne61 () =
  let rng = Fbsr_util.Rng.create 57 in
  check Alcotest.bool "2^61-1 prime" true
    (Nat.is_probably_prime rng (Nat.of_hex "1fffffffffffffff"))

let test_random_prime () =
  let rng = Fbsr_util.Rng.create 58 in
  List.iter
    (fun bits ->
      let p = Nat.random_prime rng ~bits in
      check Alcotest.int "exact bit length" bits (Nat.bit_length p);
      check Alcotest.bool "is prime" true (Nat.is_probably_prime rng p);
      check Alcotest.bool "is odd" true (Nat.testbit p 0))
    [ 8; 16; 64; 128 ]

(* Trial division must answer as a plain sieve does: every n up to 2048
   (a candidate that is itself a small prime still passes) and every odd
   n just above one limb, the first values trial division applies to. *)
let test_sieve_agrees_with_trial_division () =
  let rng = Fbsr_util.Rng.create 59 in
  let plain n =
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    n >= 2 && go 2
  in
  let agree n =
    check Alcotest.bool (string_of_int n) (plain n)
      (Nat.is_probably_prime rng (Nat.of_int n))
  in
  for n = 0 to 2048 do
    agree n
  done;
  for k = 0 to 10_000 do
    agree ((1 lsl 26) + (2 * k) + 1)
  done;
  List.iter agree [ 104729; 2147483647 ]

(* The prime search without trial division: candidates drawn as
   [Nat.random_prime] draws them and Miller-Rabin alone, written from
   [Nat]'s public functions. *)
let reference_random_prime rng ~bits =
  let miller_rabin n =
    let n1 = Nat.sub n Nat.one in
    let rec split d s =
      if Nat.testbit d 0 then (d, s) else split (Nat.shift_right d 1) (s + 1)
    in
    let d, s = split n1 0 in
    let rec reaches_n1 x k =
      k > 0
      &&
      let x = Nat.rem (Nat.mul x x) n in
      Nat.equal x n1 || reaches_n1 x (k - 1)
    in
    let witness a =
      let x = Nat.mod_pow a d n in
      not (Nat.is_one x || Nat.equal x n1 || reaches_n1 x (s - 1))
    in
    let rec rounds k =
      k = 0
      ||
      let a = Nat.add Nat.two (Nat.random_below rng (Nat.sub n (Nat.of_int 4))) in
      (not (witness a)) && rounds (k - 1)
    in
    rounds 20
  in
  let top = Nat.shift_left Nat.one (bits - 1) in
  let rec search () =
    let raw = Nat.of_bytes_be (Fbsr_util.Rng.bytes rng ((bits + 7) / 8)) in
    let cand = Nat.rem raw (Nat.shift_left Nat.one bits) in
    let cand = if Nat.testbit cand (bits - 1) then cand else Nat.add cand top in
    let cand = if Nat.testbit cand 0 then cand else Nat.add cand Nat.one in
    if Nat.bit_length cand = bits && miller_rabin cand then cand else search ()
  in
  search ()

let prop_random_prime_as_without_sieve =
  QCheck.Test.make ~name:"random_prime = search without trial division" ~count:100
    QCheck.(pair small_int (int_range 32 160))
    (fun (seed, bits) ->
      let r = Fbsr_util.Rng.create seed and r' = Fbsr_util.Rng.create seed in
      let p = Nat.random_prime r ~bits and p' = reference_random_prime r' ~bits in
      Nat.equal p p' && Fbsr_util.Rng.next_int64 r = Fbsr_util.Rng.next_int64 r')

let prop_random_below =
  QCheck.Test.make ~name:"random_below in range" ~count:100
    QCheck.(pair small_int arb_small)
    (fun (seed, bound) ->
      QCheck.assume (not (Nat.is_zero bound));
      let rng = Fbsr_util.Rng.create seed in
      Nat.compare (Nat.random_below rng bound) bound < 0)

(* --- Differential: kernels vs the Nat_ref oracle at key sizes --- *)

let limb_base = 1 lsl 26

(* Build a value from little-endian 26-bit limbs with ring operations
   only, so generated inputs do not depend on the codecs under test. *)
let of_limbs limbs =
  List.fold_right (fun l acc -> Nat.add (Nat.shift_left acc 26) (Nat.of_int l)) limbs
    Nat.zero

(* Limbs biased toward the values that stress quotient estimation and
   carries: zero, one, the half-base bit and all ones. *)
let gen_limb =
  QCheck.Gen.(
    frequency
      [
        (5, int_bound (limb_base - 1));
        (1, return 0);
        (1, return 1);
        (1, return (limb_base / 2));
        (1, return (limb_base - 1));
      ])

(* A value of exactly [n] limbs (top limb nonzero). *)
let gen_limbs n =
  QCheck.Gen.(
    map2 (fun low top -> of_limbs (low @ [ top ])) (list_repeat (n - 1) gen_limb)
      (map (fun l -> max l 1) gen_limb))

(* A value of at most [bits] bits. *)
let gen_bits bits =
  QCheck.Gen.(
    map
      (fun v -> Nat.shift_right v ((((bits + 25) / 26) * 26) - bits))
      (gen_limbs ((bits + 25) / 26)))

let print_pair (a, b) = Nat.to_hex a ^ " / " ^ Nat.to_hex b

let agrees_with_oracle a b =
  let q, r = Nat.divmod a b and q', r' = Nat_ref.divmod a b in
  Nat.equal q q' && Nat.equal r r'

(* Divisors of 1-80 limbs; dividends up to 2048 bits wider than the
   divisor, so one- to many-limb quotients all occur. *)
let arb_divmod =
  QCheck.make ~print:print_pair
    QCheck.Gen.(
      int_range 1 80 >>= fun n ->
      gen_limbs n >>= fun b ->
      int_range 1 (Nat.bit_length b + 2048) >>= fun bits ->
      map (fun a -> (a, b)) (gen_bits bits))

let prop_divmod_vs_oracle =
  QCheck.Test.make ~name:"divmod = bit-serial oracle (1-80 limbs)" ~count:300 arb_divmod
    (fun (a, b) -> agrees_with_oracle a b)

(* Vectors that force Algorithm D's add-back step.  The divisor v is
   normalized (top limb >= 2^25) with n >= 3 limbs and low limb v0 > 0.
   The partial remainder q*(v - v0) at limb k agrees with q*v in its top
   limbs, so the two-limb estimate is q while the true quotient limb is
   q - 1. *)
let arb_add_back =
  QCheck.make ~print:print_pair
    QCheck.Gen.(
      int_range 3 80 >>= fun n ->
      list_repeat (n - 2) gen_limb >>= fun mid ->
      int_range (limb_base / 2) (limb_base - 1) >>= fun top ->
      int_range 1 (limb_base / 2) >>= fun v0 ->
      int_range 2 (limb_base - 1) >>= fun q ->
      int_range 0 3 >>= fun k ->
      list_repeat k gen_limb >>= fun low ->
      let v = of_limbs ((v0 :: mid) @ [ top ]) in
      let head = Nat.mul (Nat.of_int q) (Nat.sub v (Nat.of_int v0)) in
      return (Nat.add (Nat.shift_left head (26 * k)) (of_limbs low), v))

let prop_divmod_add_back =
  QCheck.Test.make ~name:"divmod add-back vectors = oracle" ~count:200 arb_add_back
    (fun (a, b) -> agrees_with_oracle a b)

let test_divmod_add_back_fixed () =
  (* v = 2^77 + (2^26 - 1), u = (2^26 - 1) * (v - v0): the estimate is
     2^26 - 1 and the quotient 2^26 - 2. *)
  let v0 = limb_base - 1 in
  let v = of_limbs [ v0; 0; limb_base / 2 ] in
  let u = Nat.mul (Nat.of_int (limb_base - 1)) (Nat.sub v (Nat.of_int v0)) in
  let q, r = Nat.divmod u v in
  check nat "quotient" (Nat.of_int (limb_base - 2)) q;
  check nat "remainder" (Nat.sub v (Nat.mul (Nat.of_int (limb_base - 1)) (Nat.of_int v0))) r;
  check Alcotest.bool "oracle" true (agrees_with_oracle u v)

(* Byte strings up to 256 bytes, with runs of leading zero bytes. *)
let gen_bytes =
  QCheck.Gen.(
    map2 (fun zeros s -> String.make zeros '\000' ^ s) (int_range 0 4)
      (string_size ~gen:char (int_range 0 252)))

let prop_of_bytes_vs_oracle =
  QCheck.Test.make ~name:"of_bytes_be = byte-at-a-time oracle" ~count:300
    (QCheck.make ~print:Fbsr_util.Hex.encode gen_bytes) (fun s ->
      Nat.equal (Nat.of_bytes_be s) (Nat_ref.of_bytes_be s))

(* The oracle's codec divides once per byte, so it runs on values up to
   the 1024-bit DH width; the round trip runs up to 2048 bits. *)
let arb_padded max_bits =
  QCheck.make
    ~print:(fun (a, pad) -> Printf.sprintf "%s +%d" (Nat.to_hex a) pad)
    QCheck.Gen.(pair (int_range 1 max_bits >>= gen_bits) (int_range 0 9))

let prop_to_bytes_vs_oracle =
  QCheck.Test.make ~name:"to_bytes_be (~length) = oracle" ~count:60 (arb_padded 1024)
    (fun (a, pad) ->
      let width = ((Nat.bit_length a + 7) / 8) + pad in
      String.equal (Nat.to_bytes_be ~length:width a) (Nat_ref.to_bytes_be ~length:width a)
      && String.equal (Nat.to_bytes_be a) (Nat_ref.to_bytes_be a))

let prop_bytes_roundtrip_wide =
  QCheck.Test.make ~name:"to_bytes_be ~length round-trips (2048 bits)" ~count:300
    (arb_padded 2048) (fun (a, pad) ->
      let width = ((Nat.bit_length a + 7) / 8) + pad in
      let s = Nat.to_bytes_be ~length:width a in
      String.length s = width
      && String.for_all (Char.equal '\000') (String.sub s 0 pad)
      && Nat.equal a (Nat.of_bytes_be s))

let test_to_bytes_widths () =
  check Alcotest.string "zero" "00" (Fbsr_util.Hex.encode (Nat.to_bytes_be Nat.zero));
  check Alcotest.string "zero padded" "000000"
    (Fbsr_util.Hex.encode (Nat.to_bytes_be ~length:3 Nat.zero));
  check Alcotest.string "zero width" "" (Nat.to_bytes_be ~length:0 Nat.zero);
  (* 2^208 - 1: 26 bytes, exactly 8 limbs. *)
  let v = Nat.sub (Nat.shift_left Nat.one 208) Nat.one in
  check Alcotest.string "limb-aligned" (String.make 26 '\255') (Nat.to_bytes_be v);
  check Alcotest.string "limb-aligned padded"
    ("\000\000" ^ String.make 26 '\255')
    (Nat.to_bytes_be ~length:28 v);
  check nat "leading zeros ignored" v (Nat.of_bytes_be ("\000\000" ^ String.make 26 '\255'))

(* Odd moduli of exactly [bits] bits; bases up to a limb wider than the
   modulus, so [pow] reduces them first; exponents 0, 1 or up to 128 bits,
   which keeps the oracle's bit-serial reductions affordable. *)
let arb_mont bits =
  let top = Nat.shift_left Nat.one (bits - 1) in
  QCheck.make
    ~print:(fun (m, b, e) -> String.concat " " (List.map Nat.to_hex [ m; b; e ]))
    QCheck.Gen.(
      triple
        (map
           (fun m ->
             let m = if Nat.testbit m (bits - 1) then m else Nat.add m top in
             if Nat.testbit m 0 then m else Nat.add m Nat.one)
           (gen_bits bits))
        (int_range 1 (bits + 26) >>= gen_bits)
        (frequency
           [ (1, return Nat.zero); (1, return Nat.one); (6, int_range 1 128 >>= gen_bits) ]))

let prop_mont_pow_vs_oracle bits count =
  QCheck.Test.make
    ~name:(Printf.sprintf "Mont.pow = oracle (%d-bit modulus)" bits)
    ~count (arb_mont bits) (fun (m, b, e) ->
      Nat.equal (Nat.Mont.pow (Nat.Mont.make m) b e) (Nat_ref.mod_pow b e m))

let test_mont_pow_known_moduli () =
  (* 2^61 - 1 and the Oakley group 2 prime; Fermat's little theorem
     checks a full-width exponent. *)
  let m61 = Nat.of_hex "1fffffffffffffff" in
  let e61 = Nat.of_hex "1234567890abcdef" in
  check nat "mersenne 61" (Nat_ref.mod_pow (Nat.of_int 3) e61 m61)
    (Nat.Mont.pow (Nat.Mont.make m61) (Nat.of_int 3) e61);
  let p =
    Nat.of_hex
      ("ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd1"
     ^ "29024e088a67cc74020bbea63b139b22514a08798e3404dd"
     ^ "ef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245"
     ^ "e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
     ^ "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381"
     ^ "ffffffffffffffff")
  in
  let b = Nat.of_hex "deadbeefcafef00d0123456789" in
  let e = Nat.shift_right p 768 in
  check nat "oakley2 256-bit exponent" (Nat_ref.mod_pow b e p)
    (Nat.Mont.pow (Nat.Mont.make p) b e);
  check nat "oakley2 fermat" Nat.one
    (Nat.Mont.pow (Nat.Mont.make p) b (Nat.sub p Nat.one))

(* The deferred-carry kernel's bound at its edges: moduli of all-ones
   limbs and operands m-1 fill every limb of every product as far as
   the kernel allows, at 1, 2, 40 and 59 limbs and at the widest
   modulus [Mont.make] takes (511 limbs), where the oracle's bit-serial
   reductions keep the exponent short. *)
let all_ones limbs = Nat.sub (Nat.shift_left Nat.one (26 * limbs)) Nat.one

let test_mont_pow_full_limbs () =
  List.iter
    (fun (limbs, e) ->
      let m = all_ones limbs in
      let ctx = Nat.Mont.make m in
      List.iter
        (fun b ->
          check nat
            (Printf.sprintf "%d limbs, base m-%s" limbs
               (Nat.to_string (Nat.sub m b)))
            (Nat_ref.mod_pow b e m) (Nat.Mont.pow ctx b e))
        [ Nat.sub m Nat.one; Nat.sub m (Nat.of_int 3) ])
    [
      (1, Nat.of_hex "3ffffff");
      (2, Nat.of_hex "fffffffffffff");
      (40, Nat.of_hex "ffff");
      (59, Nat.of_hex "1ff");
      (511, Nat.of_int 3);
    ]

let test_mont_make_width () =
  let m = all_ones 512 in
  Alcotest.check_raises "512 limbs"
    (Invalid_argument "Nat.Mont.make: modulus wider than 511 limbs") (fun () ->
      ignore (Nat.Mont.make m));
  (* [mod_pow] still answers, by division. *)
  check nat "mod_pow at 512 limbs" Nat.one (Nat.mod_pow (Nat.sub m Nat.one) Nat.two m)

let () =
  Alcotest.run "bignum"
    [
      ( "conversions",
        [
          Alcotest.test_case "of_int" `Quick test_of_int;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "decimal" `Quick test_decimal;
          Alcotest.test_case "narrow bytes" `Quick test_to_bytes_too_narrow;
          qtest prop_bytes_roundtrip;
        ] );
      ( "ring",
        [
          qtest prop_add_commutative;
          qtest prop_mul_commutative;
          qtest prop_distributive;
          qtest prop_add_sub;
          qtest prop_small_agrees_with_int;
        ] );
      ( "division",
        [ Alcotest.test_case "by zero" `Quick test_div_by_zero; qtest prop_divmod_invariant ] );
      ( "bits",
        [
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          qtest prop_shift_roundtrip;
          qtest prop_shift_is_mul;
          qtest prop_testbit;
        ] );
      ( "mod-pow",
        [
          Alcotest.test_case "fermat" `Quick test_fermat;
          Alcotest.test_case "large" `Quick test_mod_pow_large;
          qtest prop_mod_pow_vs_naive;
          qtest prop_mod_pow_even_modulus;
        ] );
      ( "inverse-gcd",
        [
          Alcotest.test_case "no inverse" `Quick test_mod_inv_no_inverse;
          qtest prop_mod_inv;
          qtest prop_gcd;
        ] );
      ( "vs-oracle",
        [
          qtest prop_divmod_vs_oracle;
          qtest prop_divmod_add_back;
          Alcotest.test_case "divmod add-back (fixed vector)" `Quick
            test_divmod_add_back_fixed;
          qtest prop_of_bytes_vs_oracle;
          qtest prop_to_bytes_vs_oracle;
          qtest prop_bytes_roundtrip_wide;
          Alcotest.test_case "to_bytes_be widths" `Quick test_to_bytes_widths;
          qtest (prop_mont_pow_vs_oracle 61 100);
          qtest (prop_mont_pow_vs_oracle 384 30);
          qtest (prop_mont_pow_vs_oracle 768 15);
          qtest (prop_mont_pow_vs_oracle 1024 10);
          Alcotest.test_case "Mont.pow on known moduli" `Quick test_mont_pow_known_moduli;
          Alcotest.test_case "Mont.pow on all-ones limbs" `Quick test_mont_pow_full_limbs;
          Alcotest.test_case "Mont.make width" `Quick test_mont_make_width;
        ] );
      ( "primality",
        [
          Alcotest.test_case "known primes" `Quick test_known_primes;
          Alcotest.test_case "known composites (incl. Carmichael)" `Quick
            test_known_composites;
          Alcotest.test_case "mersenne 61" `Quick test_mersenne61;
          Alcotest.test_case "random primes" `Quick test_random_prime;
          Alcotest.test_case "trial division = plain sieve" `Quick
            test_sieve_agrees_with_trial_division;
          qtest prop_random_prime_as_without_sieve;
          qtest prop_random_below;
        ] );
    ]
