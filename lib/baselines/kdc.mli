(** Session-based keying baseline: Kerberos-style KDC with tickets (paper
    Section 2.1).  Demonstrates the explicit setup exchange and hard
    session state that FBS's zero-message keying avoids.  Its data
    datagrams are {!Sealed} ones under the head [flags | len | ticket]. *)

open Fbsr_netsim

module Server : sig
  type t

  val install : Host.t -> t
  (** The host must already have a UDP stack installed.  Tickets live 8
      hours. *)

  val enroll : t -> name:string -> string
  (** Register a principal; returns the shared DES key (out-of-band
      provisioning). *)

  val tickets_issued : t -> int
end

type t

val install : kdc_addr:Addr.t -> shared_key:string -> Host.t -> t
(** The host must already have a UDP stack installed.  Data is encrypted
    and MACed under the session key.  Datagrams to a destination without
    a session wait on one session request, sent to the KDC from UDP port
    900 and retransmitted on the MKD's default schedule (2, 4, 8 s,
    +-10%); a refusal, or no reply after the third attempt, drops each of
    them (counted in [dropped] and the host's [drops_hook]). *)

val counters : t -> Sealed.counters
val kdc_requests : t -> int
val sessions_out : t -> int
val sessions_in : t -> int

(** Exposed for tests: *)

val unprotect : t -> now:float -> wire:string -> (string, Sealed.error) result
