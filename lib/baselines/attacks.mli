(** Attack harness (the Section 6 adversary): capture, replay,
    cut-and-paste, corruption. *)

open Fbsr_netsim

type capture

val tap : Medium.t -> capture
val frames : capture -> (float * string) list
val clear : capture -> unit
val between : capture -> src:Addr.t -> dst:Addr.t -> (float * string) list

val inject : Medium.t -> string -> unit
val replay : Medium.t -> string -> unit

val splice_fbs : header_from:string -> body_from:string -> string option
(** A's IP + FBS header with B's protected body (cross-flow cut-and-paste). *)

val splice_hostpair : envelope_from:string -> body_from:string -> string option
(** B's protected payload in A's IP envelope (same host pair). *)

val flip_byte : offset:int -> string -> string
(** Flip one bit, repairing the IP checksum so the corruption reaches the
    security layer. *)
