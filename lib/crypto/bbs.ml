(* Blum-Blum-Shub quadratic-residue generator (Blum, Blum & Shub 1986).

   Section 2.2 of the paper: per-datagram keys under host-pair keying must
   be cryptographically random, and "cryptographically secure random number
   generators such as the quadratic residue generator can be a performance
   bottleneck".  We implement BBS so the host-pair baseline's per-datagram
   variant pays the honest cost, and so a bench can demonstrate the claim
   (BBS yields ~1 bit per modular squaring). *)

open Fbsr_bignum

type t = { m : Nat.t; mutable state : Nat.t }

(* A Blum prime is congruent to 3 mod 4. *)
let rec blum_prime rng ~bits =
  let p = Nat.random_prime rng ~bits in
  match Nat.to_int_opt (Nat.rem p (Nat.of_int 4)) with
  | Some 3 -> p
  | _ -> blum_prime rng ~bits

let create ?(modulus_bits = 256) rng ~seed =
  let half = modulus_bits / 2 in
  let p = blum_prime rng ~bits:half in
  let q =
    let rec distinct () =
      let q = blum_prime rng ~bits:(modulus_bits - half) in
      if Nat.equal p q then distinct () else q
    in
    distinct ()
  in
  let m = Nat.mul p q in
  (* The seed must be coprime to m and not 0/1. *)
  let rec pick s =
    let s = Nat.rem s m in
    if Nat.compare s Nat.two < 0 || not (Nat.is_one (Nat.gcd s m)) then
      pick (Nat.add s (Nat.of_int 0x10001))
    else s
  in
  let x0 = pick (Nat.of_bytes_be seed) in
  { m; state = Nat.rem (Nat.mul x0 x0) m }

let next_bit t =
  t.state <- Nat.rem (Nat.mul t.state t.state) t.m;
  if Nat.testbit t.state 0 then 1 else 0

let next_byte t =
  let b = ref 0 in
  for _ = 1 to 8 do
    b := (!b lsl 1) lor next_bit t
  done;
  !b

let bytes t n = String.init n (fun _ -> Char.chr (next_byte t))
