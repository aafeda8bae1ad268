(** Host-pair keying baseline (SKIP-style, paper Section 2.2): implicit DH
    master key per host pair, used directly ([Direct], with that scheme's
    cut-and-paste weakness) or to wrap BBS-generated per-datagram keys
    ([Per_datagram], paying the CSPRNG cost the paper cites).  Its data
    datagrams are {!Sealed} ones under the head [variant | flags]. *)

open Fbsr_netsim

type variant = Direct | Per_datagram

type t

val install :
  ?variant:variant ->
  private_value:Fbsr_crypto.Dh.private_value ->
  group:Fbsr_crypto.Dh.group ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  resolver:Fbsr_fbs.Keying.resolver ->
  Host.t ->
  t
(** Per-datagram keys come from a Blum-Blum-Shub generator with a
    128-bit modulus. *)

val counters : t -> Sealed.counters

val bbs_bytes : t -> int
(** Cryptographically random bytes drawn for datagram keys. *)

(** Exposed for the attack harness and tests: *)

val unprotect : t -> master:string -> wire:string -> (string, Sealed.error) result
