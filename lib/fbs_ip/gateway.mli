(** Gateway-to-gateway FBS (Section 7.1's host/gateway granularity):
    IP-in-IP tunneling between site gateways whose outer hosts run the FBS
    stack; inside hosts need no FBS at all. *)

open Fbsr_netsim

type counters = {
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable no_route : int;
  mutable bad_inner : int;
}

type t

val create : inside:Medium.t -> inside_addr:Addr.t -> outer:Host.t -> unit -> t
(** [outer] should already have an FBS {!Stack} installed; inside hosts
    must use [inside_addr] as their default gateway. *)

val add_peer : t -> network:Addr.t -> prefix:int -> gateway:Addr.t -> unit
val counters : t -> counters
