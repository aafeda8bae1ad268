(** Message authentication codes.

    {!prefix} is the paper's construction (hash over the key-prefixed
    message, i.e. keyed MD5 as used by the 4.4BSD implementation);
    {!hmac} is RFC 2104.  Both take string parts.

    The FBS datapath MACs through a per-flow {!midstate} of the keyed-MD5
    MAC, over {!Fbsr_util.Slice.t} parts folded into MD5 with no
    concatenation. *)

val prefix : Hash.t -> key:string -> string list -> string
val hmac : Hash.t -> key:string -> string list -> string

(** {1 Per-flow MAC midstates}

    The MD5 context after absorbing the key prefix.  The engine caches
    one per flow entry, so per-datagram MACs skip the key absorption
    entirely. *)

type midstate

val prepare : key:string -> midstate
(** Freeze the absorption of [key], the prefix of the paper's keyed-MD5
    MAC. *)

val compute_midstate : midstate -> Fbsr_util.Slice.t list -> string
(** The keyed-MD5 MAC of the concatenated parts under the key given to
    {!prepare}: equal to [prefix Hash.md5 ~key] over the same bytes.  The
    midstate is reusable: any number of computations, in any order. *)

val resume_md5 : midstate -> Md5.ctx
(** A fresh context resumed from the midstate: feed it the message, and
    its digest is the MAC.  How a seal runs the MAC's MD5 beside its
    encryption ({!Fused}). *)

val verify_midstate :
  midstate -> Fbsr_util.Slice.t list -> expected:Fbsr_util.Slice.t -> bool
(** Constant-time comparison of a (possibly truncated) wire MAC against
    the computed MAC's prefix.  The expected length is public information
    (the header's MAC field is 16 bytes), so using it to select the
    prefix leaks nothing. *)
