(* Principals.

   The paper deliberately leaves the principal abstract: "the principals
   could be network interfaces on hosts, the hosts themselves, network
   protocol layers, applications, or end users" (Section 5.2).  A principal
   here is an opaque name with a canonical byte encoding; the IP mapping
   instantiates it with dotted-quad addresses, tests use symbolic names. *)

type t = string

let of_string s =
  if s = "" then invalid_arg "Principal.of_string: empty name";
  s

let to_string t = t

(* Canonical encoding used in key derivation: length-prefixed so that the
   concatenation S | D in H(sfl | K | S | D) cannot be ambiguous (e.g.
   "ab"+"c" vs "a"+"bc"). *)
let encode t =
  let n = String.length t in
  String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff)) ^ t

let hash t = Fbsr_util.Crc32.string t
