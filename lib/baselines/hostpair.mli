(** Host-pair keying baseline (SKIP-style, paper Section 2.2): implicit DH
    master key per host pair, used directly ([Direct], with that scheme's
    cut-and-paste weakness) or to wrap BBS-generated per-datagram keys
    ([Per_datagram], paying the CSPRNG cost the paper cites). *)

open Fbsr_netsim

type variant = Direct | Per_datagram

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable dropped : int;
  mutable bbs_bytes : int;
}

type t

val install :
  ?variant:variant ->
  ?bypass:(Addr.t -> bool) ->
  ?bbs_modulus_bits:int ->
  private_value:Fbsr_crypto.Dh.private_value ->
  group:Fbsr_crypto.Dh.group ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  ca_hash:Fbsr_crypto.Hash.t ->
  resolver:Fbsr_fbs.Keying.resolver ->
  Host.t ->
  t

val counters : t -> counters

(** Exposed for the attack harness and tests: *)

type error = Truncated | Bad_variant | Bad_flags | Bad_mac | Decrypt_error
(** [Bad_flags]: the flags byte is not 1.  Every datagram is encrypted,
    and the MAC does not cover the flags byte, so any other value is a
    forgery. *)

val unprotect : t -> master:string -> wire:string -> (string, error) result
