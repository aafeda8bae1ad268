(** Session keying without a third party (paper Section 2.1): a
    Photuris/Oakley-style baseline — cookie exchange, ephemeral DH, hard
    session state, two setup round trips before the first datagram.  Its
    data datagrams are {!Sealed} ones under the head [flags | cookie]. *)

open Fbsr_netsim

type setup = {
  mutable handshakes : int;  (** associations the responder installed *)
  mutable setup_messages : int;
  mutable modexps : int;
}

type t

val install : group:Fbsr_crypto.Dh.group -> Host.t -> t
(** The host must already have a UDP stack installed.  Data is encrypted
    and MACed under the session key.  Datagrams to a peer without a
    session wait on one handshake, which resends the message of the step
    it waits on (PHC1, then PHK1) on the MKD's default schedule (2, 4,
    8 s, +-10%); after the third attempt's timeout each of them is dropped
    (counted in [dropped] and the host's [drops_hook]).  A repeated PHK1
    gets the PHK2 that answered the first. *)

val counters : t -> Sealed.counters
val setup : t -> setup
val sessions_out : t -> int
val sessions_in : t -> int
val has_long_term_secrets : t -> bool

(** Exposed for tests: *)

val unprotect : t -> wire:string -> (string, Sealed.error) result
