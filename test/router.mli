(** IP router: longest-prefix forwarding between segments, TTL handling,
    per-interface MTU (re-fragmentation).  Demonstrates FBS's transparency
    to the network path.  A test module: no shipped code forwards. *)

open Fbsr_netsim

type t

type stats = {
  mutable forwarded : int;
  mutable dropped_ttl : int;
  mutable dropped_no_route : int;
  mutable dropped_df : int;
  mutable dropped_bad : int;
  mutable fragmented : int;
}

type interface = {
  addr : Addr.t;
  medium : Medium.t;
  mtu : int;
  prefix : int;
}

val create : name:string -> unit -> t

val attach : t -> addr:Addr.t -> prefix:int -> ?mtu:int -> Medium.t -> int
(** Attach an interface fronting [addr]/[prefix]; returns its index. *)

val stats : t -> stats
