(* Golden keys: the keys that key generation finds at fixed seeds.  A
   change to the bignum kernels or to the prime search that alters which
   primes are found, or how many random draws finding them takes, changes
   a line here.

   - RSA-768 moduli of [Rsa.generate] at seeds 1-20, 42 (the testbed
     CA's key at testbed seed 42) and 768 (the bench fixture);
   - one 128-bit safe-prime group of [Dh.generate_group];
   - the bench fixture's 256-bit BBS generator.  [Bbs.t] is abstract,
     so its line is the first 32 bytes of the stream, which the modulus
     and the seed fix. *)

open Fbsr_bignum
module Rng = Fbsr_util.Rng

let rsa_768 seed =
  let key = Fbsr_crypto.Rsa.generate (Rng.create seed) ~bits:768 in
  (Fbsr_crypto.Rsa.public_key key).Fbsr_crypto.Rsa.n

let () =
  List.iter
    (fun seed -> Printf.printf "rsa-768 seed %d n %s\n" seed (Nat.to_hex (rsa_768 seed)))
    (List.init 20 (fun i -> i + 1) @ [ 42; 768 ]);
  let g = Fbsr_crypto.Dh.generate_group ~bits:128 (Rng.create 128) in
  Printf.printf "dh-128 seed 128 p %s g %s\n" (Nat.to_hex g.Fbsr_crypto.Dh.p)
    (Nat.to_hex g.Fbsr_crypto.Dh.g);
  (* The bench fixture's draws, in its order (bench/main.ml). *)
  let rng = Rng.create 7 in
  ignore (Fbsr_crypto.Dh.gen_private (Lazy.force Fbsr_crypto.Dh.test_group) rng);
  ignore (Fbsr_crypto.Dh.gen_private (Lazy.force Fbsr_crypto.Dh.oakley2) rng);
  let bbs = Fbsr_crypto.Bbs.create ~modulus_bits:256 rng ~seed:"bench-bbs-seed" in
  Printf.printf "bbs-256 seed 7 stream %s\n"
    (Fbsr_util.Hex.encode (Fbsr_crypto.Bbs.bytes bbs 32))
