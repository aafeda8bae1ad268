(* RSA signatures, used to sign public-value certificates.

   The paper assumes "the public values are made available and
   authenticated via a distributed certification hierarchy (e.g., X.509
   certificates)"; our certificate authority signs with RSA (which the
   paper's CryptoLib also provided).  PKCS#1 v1.5-style deterministic
   padding over an MD5 digest.  Private operations use the CRT speedup. *)

open Fbsr_bignum

type public_key = { n : Nat.t; e : Nat.t }

type private_key = {
  pub : public_key;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t; (* d mod (p-1) *)
  dq : Nat.t; (* d mod (q-1) *)
  qinv : Nat.t; (* q^{-1} mod p *)
}

let modulus_bytes pub = (Nat.bit_length pub.n + 7) / 8
let public_key key = key.pub

let generate rng ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: modulus too small";
  let e_nat = Nat.of_int 65537 in
  let rec gen_prime b =
    let p = Nat.random_prime rng ~bits:b in
    if Nat.is_one (Nat.gcd (Nat.sub p Nat.one) e_nat) then p else gen_prime b
  in
  let half = bits / 2 in
  let p = gen_prime half in
  let rec gen_q () =
    let q = gen_prime (bits - half) in
    if Nat.equal p q then gen_q () else q
  in
  let q = gen_q () in
  let n = Nat.mul p q in
  let p1 = Nat.sub p Nat.one and q1 = Nat.sub q Nat.one in
  let lambda = Nat.div (Nat.mul p1 q1) (Nat.gcd p1 q1) in
  let d = Nat.mod_inv e_nat lambda in
  let pub = { n; e = e_nat } in
  { pub; d; p; q; dp = Nat.rem d p1; dq = Nat.rem d q1; qinv = Nat.mod_inv q p }

(* Private-key operation with the Chinese-remainder speedup. *)
let private_op key (c : Nat.t) : Nat.t =
  let m1 = Nat.mod_pow (Nat.rem c key.p) key.dp key.p in
  let m2 = Nat.mod_pow (Nat.rem c key.q) key.dq key.q in
  (* h = qinv * (m1 - m2) mod p, m = m2 + h*q *)
  let diff =
    if Nat.compare m1 m2 >= 0 then Nat.sub m1 m2
    else Nat.sub key.p (Nat.rem (Nat.sub m2 m1) key.p)
  in
  let h = Nat.rem (Nat.mul key.qinv diff) key.p in
  Nat.add m2 (Nat.mul h key.q)

let public_op pub (m : Nat.t) : Nat.t = Nat.mod_pow m pub.e pub.n

(* EMSA-PKCS1-v1_5-style encoding: 00 01 FF..FF 00 | "md5:" | digest. *)
let encode_digest msg ~width =
  let payload = Md5.name ^ ":" ^ Md5.digest msg in
  let pad_len = width - String.length payload - 3 in
  if pad_len < 8 then invalid_arg "Rsa.encode_digest: modulus too small for digest";
  "\x00\x01" ^ String.make pad_len '\xff' ^ "\x00" ^ payload

let sign key msg =
  let width = modulus_bytes key.pub in
  let em = encode_digest msg ~width in
  let s = private_op key (Nat.of_bytes_be em) in
  Nat.to_bytes_be ~length:width s

let verify pub msg ~signature =
  let width = modulus_bytes pub in
  String.length signature = width
  &&
  let m = public_op pub (Nat.of_bytes_be signature) in
  let expected = encode_digest msg ~width in
  (* Signature verification is public; constant time is not required, but
     Ct.equal is cheap and removes any doubt. *)
  Ct.equal (Nat.to_bytes_be ~length:width m) expected
