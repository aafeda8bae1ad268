(** The data datagram of the three keying baselines (paper Section 2):
    host-pair keying ({!Hostpair}), and session keying through a KDC
    ({!Kdc}) or a Photuris-style handshake ({!Photuris}).

    Between the IP header and the payload each carries its scheme's head,
    which holds a flags byte and names the datagram's key, then the
    sealed tail:
{v
      8B iv | extra | 16B mac | DES-CBC(payload)
v}
    [extra] is scheme data the MAC covers (the wrapped datagram key of
    per-datagram host-pair keying; empty otherwise).  The MAC is prefix
    MD5 keyed by the datagram's MAC key over iv | extra | ciphertext, and
    is verified before anything is decrypted.  Every datagram is
    encrypted, so the flags byte is always {!flags}; the MAC does not
    cover it, and any other value is refused as a forgery.

    This module also holds the two hooks the schemes install: the
    output hook seals a datagram once its key is in hand, and the input
    hook opens one; both count data datagrams in {!counters}. *)

open Fbsr_netsim

val flags : int

val overhead : head:int -> int
(** The most a scheme head of [head] bytes and the tail add to a
    datagram (iv, MAC, CBC padding): the TCP MSS reduction. *)

type key = { des : Fbsr_crypto.Des.key; mac : string }
(** A datagram's DES-CBC key and MAC key. *)

val seal : Fbsr_util.Lcg.t -> key -> head:string -> extra:string -> string -> string
(** [seal ivs key ~head ~extra payload] is the wire between the IP header
    and the payload, its iv drawn from [ivs]. *)

type error =
  | Truncated
  | Bad_variant  (** A host-pair head names no variant. *)
  | Bad_flags
  | Unknown_key
      (** The head names no key this host holds or can find: a ticket
          that does not decrypt, an unknown association, a master key
          that cannot be computed. *)
  | Expired  (** A KDC ticket past its expiry. *)
  | Bad_mac
  | Decrypt_error

type tail
(** A datagram whose head was read: the sealed tail, unverified. *)

val frame :
  string ->
  (Fbsr_util.Byte_reader.t -> (int * 'h * int, error) result) ->
  ('h * tail, error) result
(** [frame wire head] reads the scheme head with [head], which answers
    the flags byte, what the scheme needs of its head and the length of
    the tail's extra field; then the tail.  A wire too short for either
    is [Truncated]; flags other than {!flags} are [Bad_flags]. *)

val extra : tail -> string

val open_ : key -> tail -> (string, error) result
(** Verify the MAC, then decrypt. *)

type counters = {
  mutable sent : int;  (** sealed *)
  mutable received : int;  (** opened *)
  mutable dropped : int;  (** refused on input, or left unsealed for want of a key *)
}

val output :
  counters ->
  bypass:(Ipv4.header -> string -> bool) ->
  seal:('k -> string -> string) ->
  (Ipv4.header -> (('k, 'e) result -> unit) -> unit) ->
  Host.hook
(** [output counters ~bypass ~seal find] passes a bypassed datagram as it
    is; any other waits for [find] to answer its key, and is then sealed
    with [seal], or dropped when there is none. *)

val await :
  ('p, 's, ('k, string) result) Request.t ->
  'p ->
  'k option ->
  start:(unit -> 's * (float -> unit)) ->
  (('k, string) result -> unit) ->
  unit
(** [await requests peer cached ~start k] answers [k] with the cached
    session for [peer], else parks [k] on the peer's request in flight.
    When there is none, [start ()] gives the new request's state and its
    send function. *)

val input :
  counters ->
  bypass:(Ipv4.header -> string -> bool) ->
  (Ipv4.header -> string -> ((string, 'e) result -> unit) -> unit) ->
  Host.hook
(** [input counters ~bypass unprotect] passes a bypassed datagram as it
    is; any other is passed up as the plaintext [unprotect] answers, or
    dropped when it refuses the datagram. *)
