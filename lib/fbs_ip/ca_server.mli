(** Certificate authority as a simulated network service (UDP). *)

open Fbsr_netsim

type t

val install : ?port:int -> authority:Fbsr_cert.Authority.t -> Host.t -> t
(** The host must already have a UDP stack installed. *)

val requests_served : t -> int
val port : t -> int
