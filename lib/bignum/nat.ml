(* Arbitrary-precision natural numbers.

   Representation: little-endian array of 26-bit limbs (base 2^26), with no
   trailing zero limbs ("normalized").  26-bit limbs keep every intermediate
   product and carry comfortably inside OCaml's 63-bit native int:
   limb*limb < 2^52, and schoolbook accumulation adds at most a few more
   bits.  This module is the substrate for Diffie-Hellman and RSA in the
   crypto library; performance-sensitive modular exponentiation goes through
   the Montgomery context below. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1
let limb_base = 1 lsl limb_bits

type t = int array (* invariant: normalized, each limb in [0, 2^26) *)

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
  Array.of_list (limbs v)

let to_int_opt (a : t) =
  (* Max int is 62 bits: three limbs always fit (78 bits do not), so check. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0 in
    let ok = ref true in
    for i = n - 1 downto 0 do
      if !v > max_int lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_one a = equal a one

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec msb v acc = if v = 0 then acc else msb (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + msb top 0
  end

let testbit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      (* Propagate the final carry (it can be up to 27 bits wide). *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) k : t =
  if k < 0 then invalid_arg "Nat.shift_left: negative";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) k : t =
  if k < 0 then invalid_arg "Nat.shift_right: negative";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division is on the keying path: [rem] reduces every RSA and BBS value,
   [mod_inv] and [gcd] run Euclid on it, and [Mont.make] computes R^2 mod m
   with it.  Single-limb divisors take one native division per limb;
   longer ones use Knuth's Algorithm D (TAOCP vol. 2, 4.3.1), which
   produces one quotient limb per step from a two-limb estimate. *)

let divmod_limb (a : t) d : t * t =
  let q = Array.make (Array.length a) 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    let qi = cur / d in
    q.(i) <- qi;
    r := cur - (qi * d)
  done;
  (normalize q, if !r = 0 then zero else [| !r |])

(* Requires [Array.length b >= 2] and [a >= b]. *)
let divmod_knuth (a : t) (b : t) : t * t =
  let la = Array.length a and n = Array.length b in
  (* D1: scale both operands by 2^s so the divisor's top limb has its high
     bit set.  The quotient-limb estimate is then at most two too large,
     and at most one after the D3 test. *)
  let s = limb_bits - bit_length [| b.(n - 1) |] in
  let scale src dst len =
    for i = 0 to len - 1 do
      let lo = if i = 0 then 0 else src.(i - 1) lsr (limb_bits - s) in
      dst.(i) <- ((src.(i) lsl s) land limb_mask) lor lo
    done
  in
  let v = Array.make n 0 and u = Array.make (la + 1) 0 in
  scale b v n;
  scale a u la;
  u.(la) <- a.(la - 1) lsr (limb_bits - s);
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  let q = Array.make (la - n + 1) 0 in
  for j = la - n downto 0 do
    (* D3: estimate the quotient limb from the remainder's top two limbs,
       then correct it with the divisor's second limb. *)
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) in
    let rhat = ref (num - (!qhat * vtop)) in
    while
      !rhat < limb_base
      && (!qhat >= limb_base
         || !qhat * vnext > (!rhat lsl limb_bits) + u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* D4: u[j..j+n] -= qhat * v.  [k] carries the product's high limb
       plus the borrow. *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) in
      let t = u.(i + j) - !k - (p land limb_mask) in
      u.(i + j) <- t land limb_mask;
      k := (p lsr limb_bits) - (t asr limb_bits)
    done;
    let top = u.(j + n) - !k in
    if top >= 0 then begin
      q.(j) <- !qhat;
      u.(j + n) <- top
    end
    else begin
      (* D6: the estimate was one too large (probability about 2/2^26):
         add the divisor back.  The carry out cancels the borrow. *)
      q.(j) <- !qhat - 1;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !c in
        u.(i + j) <- t land limb_mask;
        c := t lsr limb_bits
      done;
      u.(j + n) <- top + !c
    end
  done;
  (* D8: the remainder is u[0..n-1] scaled down by 2^s. *)
  let r =
    Array.init n (fun i ->
        (u.(i) lsr s) lor ((u.(i + 1) lsl (limb_bits - s)) land limb_mask))
  in
  (normalize q, normalize r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Conversions. *)

(* Both byte codecs are linear: a limb holds 26 bits of at most five
   bytes, and a byte takes bits from at most two limbs. *)
let of_bytes_be (s : string) : t =
  let len = String.length s in
  let r = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nbits = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits;
      incr k
    end
  done;
  if !nbits > 0 then r.(!k) <- !acc;
  normalize r

let to_bytes_be ?length (a : t) : string =
  let nbytes = (bit_length a + 7) / 8 in
  let width =
    match length with
    | None -> max nbytes 1
    | Some w ->
        if w < nbytes then invalid_arg "Nat.to_bytes_be: value too wide";
        w
  in
  let la = Array.length a in
  let out = Bytes.make width '\000' in
  for i = 0 to nbytes - 1 do
    let l = 8 * i / limb_bits and off = 8 * i mod limb_bits in
    let hi = if l + 1 < la then a.(l + 1) lsl (limb_bits - off) else 0 in
    Bytes.unsafe_set out (width - 1 - i)
      (Char.unsafe_chr (((a.(l) lsr off) lor hi) land 0xff))
  done;
  Bytes.unsafe_to_string out

let of_hex s = of_bytes_be (Fbsr_util.Hex.decode (if String.length s mod 2 = 1 then "0" ^ s else s))

let to_hex (a : t) =
  let s = Fbsr_util.Hex.encode (to_bytes_be a) in
  (* Strip leading zeros but keep at least one digit. *)
  let n = String.length s in
  let i = ref 0 in
  while !i < n - 1 && s.[!i] = '0' do
    incr i
  done;
  String.sub s !i (n - !i)

let to_string a =
  (* Decimal, for small display needs. *)
  if is_zero a then "0"
  else begin
    let ten = of_int 10 in
    let buf = Buffer.create 32 in
    let rec go v =
      if not (is_zero v) then begin
        let q, r = divmod v ten in
        go q;
        let d = match to_int_opt r with Some x -> x | None -> assert false in
        Buffer.add_char buf (Char.chr (Char.code '0' + d))
      end
    in
    go a;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Montgomery modular arithmetic.                                      *)
(* ------------------------------------------------------------------ *)

module Mont = struct
  type ctx = {
    m : int array; (* modulus limbs, length n, m odd *)
    n : int;
    m' : int; (* -m^{-1} mod 2^26 *)
    r2 : int array; (* R^2 mod m in n limbs, R = 2^(26n) *)
    m_nat : t;
  }

  (* Residues inside this module are arrays of exactly [n] limbs holding a
     value below m, so the product loop needs no bounds tests.  Having one
     width, two residues are equal iff [equal] says so. *)
  let pad n (a : t) =
    if Array.length a = n then a
    else begin
      let r = Array.make n 0 in
      Array.blit a 0 r 0 (Array.length a);
      r
    end

  (* Inverse of an odd value mod 2^26 by Newton/Hensel lifting. *)
  let inv_limb m0 =
    let x = ref 1 in
    for _ = 1 to 5 do
      x := !x * (2 - (m0 * !x)) land limb_mask
    done;
    !x land limb_mask

  (* The widest modulus whose deferred-carry limbs fit (see [mont_mul]). *)
  let max_limbs = 511

  let make (m_nat : t) : ctx =
    if is_zero m_nat || m_nat.(0) land 1 = 0 then
      invalid_arg "Nat.Mont.make: modulus must be odd and positive";
    let n = Array.length m_nat in
    if n > max_limbs then invalid_arg "Nat.Mont.make: modulus wider than 511 limbs";
    let m = Array.copy m_nat in
    let m' = limb_base - inv_limb m.(0) in
    let r2 = pad n (rem (shift_left one (2 * limb_bits * n)) m_nat) in
    { m; n; m'; r2; m_nat }

  (* Montgomery product a*b*R^{-1} mod m, coarsely integrated operand
     scanning (CIOS) with deferred carries: each outer step adds a_i*b and
     u*m in one pass over the limbs and shifts down one limb as it
     stores, but leaves every limb unnormalised, so the inner loop has no
     carry chain.  Only the low limb's carry moves up at each step,
     because the next [u] reads the low limb.  That low limb still holds
     the running value mod 2^26, so [u], and with it the result, is the
     one a normalised CIOS computes.  Bound: a product a_i*b_j + u*m_j is
     below 2^53 and the carry into the low limb below 2^36, so after k
     steps a limb is at most k*2^53 + 2^36, which fits a 63-bit int for
     k <= 511: [make] refuses a wider modulus.  One normalising pass runs
     at the end; the running value stays below 2m, so one subtraction
     reduces it. *)
  let mont_mul ctx (a : int array) (b : int array) : int array =
    let n = ctx.n and m = ctx.m and m' = ctx.m' in
    let t = Array.make n 0 in
    let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
    for i = 0 to n - 1 do
      let ai = Array.unsafe_get a i in
      let s = Array.unsafe_get t 0 + (ai * b0) in
      let u = (s land limb_mask) * m' land limb_mask in
      let c = (s + (u * m0)) lsr limb_bits in
      for j = 1 to n - 1 do
        Array.unsafe_set t (j - 1)
          (Array.unsafe_get t j
          + (ai * Array.unsafe_get b j)
          + (u * Array.unsafe_get m j))
      done;
      Array.unsafe_set t (n - 1) 0;
      Array.unsafe_set t 0 (Array.unsafe_get t 0 + c)
    done;
    let c = ref 0 in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get t j + !c in
      Array.unsafe_set t j (s land limb_mask);
      c := s lsr limb_bits
    done;
    let rec below_m j =
      j >= 0 && if t.(j) <> m.(j) then t.(j) < m.(j) else below_m (j - 1)
    in
    if !c = 0 && below_m (n - 1) then t
    else begin
      (* The borrow out of the top limb cancels the carry [!c]. *)
      let borrow = ref 0 in
      for j = 0 to n - 1 do
        let d = t.(j) - m.(j) - !borrow in
        t.(j) <- d land limb_mask;
        borrow := -(d asr limb_bits)
      done;
      t
    end

  let to_mont ctx a = mont_mul ctx (pad ctx.n (rem a ctx.m_nat)) ctx.r2
  let from_mont ctx a = normalize (mont_mul ctx a (pad ctx.n one))

  (* base^e in Montgomery form, e > 0: left-to-right square-and-multiply
     with 4-bit windows. *)
  let pow_mont ctx (base : t) (e : t) : int array =
    let bm = to_mont ctx base in
    (* Precompute bm^0..bm^15 in Montgomery form. *)
    let table = Array.make 16 [||] in
    table.(0) <- to_mont ctx one;
    for i = 1 to 15 do
      table.(i) <- mont_mul ctx table.(i - 1) bm
    done;
    let bits = bit_length e in
    (* Process exponent in 4-bit windows from the top. *)
    let nwin = (bits + 3) / 4 in
    let acc = ref table.(0) in
    for w = nwin - 1 downto 0 do
      for _ = 1 to 4 do
        acc := mont_mul ctx !acc !acc
      done;
      let nib =
        (if testbit e ((4 * w) + 3) then 8 else 0)
        lor (if testbit e ((4 * w) + 2) then 4 else 0)
        lor (if testbit e ((4 * w) + 1) then 2 else 0)
        lor if testbit e (4 * w) then 1 else 0
      in
      if nib <> 0 then acc := mont_mul ctx !acc table.(nib)
    done;
    !acc

  let pow ctx (base : t) (e : t) : t =
    if is_zero e then rem one ctx.m_nat else from_mont ctx (pow_mont ctx base e)
end

let mod_pow base e m =
  if is_zero m then raise Division_by_zero;
  if is_one m then zero
  else if m.(0) land 1 = 1 && Array.length m <= Mont.max_limbs then
    Mont.pow (Mont.make m) base e
  else begin
    (* Even (or wider than Montgomery takes) modulus: plain
       square-and-multiply with division.  Rare (only tests exercise it)
       and still correct. *)
    let base = ref (rem base m) in
    let result = ref (rem one m) in
    for i = 0 to bit_length e - 1 do
      if testbit e i then result := rem (mul !result !base) m;
      base := rem (mul !base !base) m
    done;
    !result
  end

(* Modular inverse via extended Euclid with signed cofactors. *)

type signed = { neg : bool; mag : t }

let s_of_nat mag = { neg = false; mag }

let s_add a b =
  if a.neg = b.neg then { neg = a.neg; mag = add a.mag b.mag }
  else if compare a.mag b.mag >= 0 then { neg = a.neg; mag = sub a.mag b.mag }
  else { neg = b.neg; mag = sub b.mag a.mag }

let s_neg a = { a with neg = (not a.neg) }
let s_sub a b = s_add a (s_neg b)
let s_mul_nat a n = { a with mag = mul a.mag n }

let mod_inv a m =
  if is_zero m then raise Division_by_zero;
  let a = rem a m in
  if is_zero a then raise Not_found;
  (* Maintain r = old_r - q*r and the s cofactors. *)
  let old_r = ref m and r = ref a in
  let old_s = ref (s_of_nat zero) and s = ref (s_of_nat one) in
  while not (is_zero !r) do
    let q, rm = divmod !old_r !r in
    old_r := !r;
    r := rm;
    let tmp = s_sub !old_s (s_mul_nat !s q) in
    old_s := !s;
    s := tmp
  done;
  if not (is_one !old_r) then raise Not_found;
  (* old_s is the cofactor of [a]: a*old_s ≡ 1 (mod m). *)
  let cofactor = !old_s in
  let v = rem cofactor.mag m in
  if cofactor.neg && not (is_zero v) then sub m v else v

(* Random values and probabilistic primality. *)

let random rng ~bits =
  if bits <= 0 then invalid_arg "Nat.random: bits must be positive";
  let nbytes = (bits + 7) / 8 in
  let s = Bytes.of_string (Fbsr_util.Rng.bytes rng nbytes) in
  (* Clear excess high bits. *)
  let excess = (8 * nbytes) - bits in
  if excess > 0 then begin
    let mask = 0xff lsr excess in
    Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) land mask))
  end;
  of_bytes_be (Bytes.unsafe_to_string s)

let random_below rng bound =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let bits = bit_length bound in
  let rec go () =
    let v = random rng ~bits in
    if compare v bound < 0 then v else go ()
  in
  go ()

(* Trial division before Miller-Rabin.  Most random odd candidates have a
   prime factor below 2048, and finding it costs a few hundred native
   divisions where a witness costs a modular exponentiation.  The odd
   primes below 2048 are grouped into products below 2^36, so the Horner
   step r <- (r * 2^26 + limb) mod P over the limbs stays below 2^62;
   the residue mod P then answers for each prime of its group. *)
let sieve_groups : (int * int array) array =
  let is_prime p =
    let rec go d = d * d > p || (p mod d <> 0 && go (d + 2)) in
    go 3
  in
  let primes = List.filter is_prime (List.init 1023 (fun i -> (2 * i) + 3)) in
  let group (prod, ps) = (prod, Array.of_list (List.rev ps)) in
  let groups, last =
    List.fold_left
      (fun (groups, (prod, ps)) p ->
        if prod * p < 1 lsl 36 then (groups, (prod * p, p :: ps))
        else (group (prod, ps) :: groups, (p, [ p ])))
      ([], (1, [])) primes
  in
  Array.of_list (List.rev (group last :: groups))

let has_small_factor (a : t) =
  let la = Array.length a in
  let rec from g =
    g < Array.length sieve_groups
    &&
    let prod, ps = sieve_groups.(g) in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      r := ((!r lsl limb_bits) lor Array.unsafe_get a i) mod prod
    done;
    Array.exists (fun p -> !r mod p = 0) ps || from (g + 1)
  in
  from 0

let is_probably_prime ?(rounds = 20) rng n =
  if compare n two < 0 then false
  else if equal n two then true
  else if n.(0) land 1 = 0 then false
  else if Array.length n > 1 && has_small_factor n then begin
    (* n > 2^26 has a factor below 2048.  Miller-Rabin's first round
       would draw a witness and reject n with it; draw that witness all
       the same, so the random stream, and every key found from it, is
       the one the plain search gives. *)
    if rounds > 0 then ignore (random_below rng (sub n (of_int 4)));
    false
  end
  else begin
    (* Write n-1 = d * 2^s. *)
    let n1 = sub n one in
    let s = ref 0 and d = ref n1 in
    while not (testbit !d 0) do
      d := shift_right !d 1;
      incr s
    done;
    (* The witness loop runs in the Montgomery domain, where 1 and n-1
       have fixed images and squaring needs no division. *)
    let ctx = Mont.make n in
    let one_m = Mont.to_mont ctx one and n1_m = Mont.to_mont ctx n1 in
    let witness a =
      (* true iff a witnesses compositeness *)
      let x = ref (Mont.pow_mont ctx a !d) in
      if equal !x one_m || equal !x n1_m then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to !s - 1 do
             x := Mont.mont_mul ctx !x !x;
             if equal !x n1_m then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec rounds_left k =
      if k = 0 then true
      else begin
        let a = add two (random_below rng (sub n (of_int 4))) in
        if witness a then false else rounds_left (k - 1)
      end
    in
    if compare n (of_int 5) < 0 then true else rounds_left rounds
  end

let rec random_prime ?(rounds = 20) rng ~bits =
  if bits < 2 then invalid_arg "Nat.random_prime: need at least 2 bits";
  let cand = random rng ~bits in
  (* Force top and bottom bits so the size is exact and the value is odd. *)
  let cand =
    if testbit cand (bits - 1) then cand else add cand (shift_left one (bits - 1))
  in
  let cand = if testbit cand 0 then cand else add cand one in
  if bit_length cand = bits && is_probably_prime ~rounds rng cand then cand
  else random_prime ~rounds rng ~bits
