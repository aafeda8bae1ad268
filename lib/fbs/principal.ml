(* Principals.

   The paper deliberately leaves the principal abstract: "the principals
   could be network interfaces on hosts, the hosts themselves, network
   protocol layers, applications, or end users" (Section 5.2).  A principal
   here is an opaque name, which key derivation length-prefixes
   ([Keying.flow_key]); the IP mapping instantiates it with dotted-quad
   addresses, tests use symbolic names. *)

type t = string

let of_string s =
  if s = "" then invalid_arg "Principal.of_string: empty name";
  s

let to_string t = t

let hash t = Fbsr_util.Crc32.string t
