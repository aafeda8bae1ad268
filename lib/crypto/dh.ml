(* Diffie-Hellman key agreement (Diffie & Hellman 1976) — the basis of the
   paper's zero-message keying: the pair-based master key

       K_{S,D} = g^{sd} mod p

   is computable by S and D alone from their own private value and the
   other's (certified) public value, with no message exchange. *)

open Fbsr_bignum

type group = { p : Nat.t; g : Nat.t; ctx : Nat.Mont.ctx; name : string }

let make_group ~name ~p ~g = { p; g; ctx = Nat.Mont.make p; name }

(* Oakley "Group 2" (RFC 2412 / the First and Second Oakley Groups): the
   well-known 1024-bit MODP prime 2^1024 - 2^960 - 1 + 2^64*(floor(2^894 pi)
   + 129093), generator 2.  This is the group SKIP-era zero-message-keying
   implementations used. *)
let oakley2 =
  lazy
    (make_group ~name:"oakley-group2"
       ~p:
         (Nat.of_hex
            ("ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd1"
           ^ "29024e088a67cc74020bbea63b139b22514a08798e3404dd"
           ^ "ef9519b3cd3a431b302b0a6df25f14374fe1356d6d51c245"
           ^ "e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
           ^ "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381"
           ^ "ffffffffffffffff"))
       ~g:Nat.two)

(* A 61-bit Mersenne-prime group for fast tests: p = 2^61 - 1, g = 3.
   Cryptographically toy, mathematically a perfectly good cyclic group. *)
let test_group =
  lazy (make_group ~name:"test-mersenne61" ~p:(Nat.of_hex "1fffffffffffffff") ~g:(Nat.of_int 3))

(* Generate a fresh group (safe prime p = 2q+1) of the given size.  Used by
   tests that want mid-sized groups without hardcoded constants. *)
let generate_group ?(bits = 256) rng =
  let rec go () =
    let q = Nat.random_prime rng ~bits:(bits - 1) in
    let p = Nat.add (Nat.shift_left q 1) Nat.one in
    if Nat.is_probably_prime rng p then (p, q) else go ()
  in
  let p, q = go () in
  (* For a safe prime, any g with g^2 <> 1 and g^q <> 1 generates a large
     subgroup; 2 works unless it has order 2 or q fails. *)
  let rec pick_g c =
    let g = Nat.of_int c in
    let gq = Nat.mod_pow g q p in
    if Nat.is_one gq || Nat.is_one (Nat.rem (Nat.mul g g) p) then pick_g (c + 1) else g
  in
  make_group ~name:(Printf.sprintf "generated-%d" bits) ~p ~g:(pick_g 2)

type private_value = Nat.t
type public_value = Nat.t

let gen_private group rng : private_value =
  (* Uniform in [2, p-2]. *)
  let bound = Nat.sub group.p (Nat.of_int 3) in
  Nat.add (Nat.random_below rng bound) Nat.two

let public group (s : private_value) : public_value = Nat.Mont.pow group.ctx group.g s

let public_in_range group (v : public_value) =
  Nat.compare v Nat.two >= 0 && Nat.compare v group.p < 0

let shared group (s : private_value) (peer_public : public_value) : Nat.t =
  if not (public_in_range group peer_public) then
    invalid_arg "Dh.shared: public value out of range";
  Nat.Mont.pow group.ctx peer_public s

let shared_bytes group s peer_public =
  (* Fixed-width encoding so both sides derive identical key material. *)
  let width = (Nat.bit_length group.p + 7) / 8 in
  Nat.to_bytes_be ~length:width (shared group s peer_public)

let public_to_bytes group (v : public_value) =
  let width = (Nat.bit_length group.p + 7) / 8 in
  Nat.to_bytes_be ~length:width v

let public_of_bytes s : public_value = Nat.of_bytes_be s
