(** Message authentication codes.

    [Prefix] is the paper's construction (hash over the key-prefixed
    message, i.e. keyed MD5 as used by the 4.4BSD implementation); [Hmac]
    is RFC 2104.

    [prefix] and [hmac] take string parts.  The FBS datapath MACs through
    a per-flow {!midstate}, over {!Fbsr_util.Slice.t} parts folded into
    the underlying primitive with no concatenation. *)

type algorithm = Prefix | Hmac | Des_cbc_mac

val prefix : Hash.t -> key:string -> string list -> string
val hmac : Hash.t -> key:string -> string list -> string

(** {1 Per-flow MAC midstates}

    Everything about the key that can be absorbed ahead of time: the
    hash state after the keyed prefix ([Prefix]), the inner-hash state
    after ipad plus the retained opad ([Hmac]), or the pre-expanded
    key schedule ([Des_cbc_mac]).  The engine caches one per flow
    entry, so per-datagram MACs skip the key absorption/expansion
    entirely. *)

type midstate

val prepare : ?algorithm:algorithm -> Hash.t -> key:string -> midstate
(** Freeze the key-dependent precomputation of [algorithm] (default
    [Prefix], the paper's).  [Des_cbc_mac] is DES-CBC-MAC (footnote 12 of
    the paper): the last block of a zero-IV CBC pass over the padded
    message, keyed by the first 8 key bytes. *)

val compute_midstate : midstate -> Fbsr_util.Slice.t list -> string
(** The MAC of the concatenated parts under the algorithm, hash and key
    given to {!prepare}.  The midstate is reusable: any number of
    computations, in any order. *)

val resume_md5 : midstate -> Md5.ctx
(** A fresh context resumed from the midstate of a [Prefix] or [Hmac]
    MAC over MD5 (its inner hash for [Hmac]): feed it the message, then
    pass its digest to {!finish_md5}.  How a seal runs the MAC's MD5 beside its encryption
    ({!Fused}).  @raise Invalid_argument for any other midstate. *)

val finish_md5 : midstate -> string -> string
(** [finish_md5 mid inner] is the MAC whose inner digest is [inner], the
    digest of a context from {!resume_md5} [mid] that absorbed the
    message: [inner] itself for [Prefix], the outer hash over it for
    [Hmac].  Equal to {!compute_midstate} over the same message. *)

val verify_midstate :
  midstate -> Fbsr_util.Slice.t list -> expected:Fbsr_util.Slice.t -> bool
(** Constant-time comparison of a (possibly truncated) wire MAC against
    the computed MAC's prefix.  The expected length is public information
    (it comes from the suite descriptor), so using it to select the
    prefix leaks nothing. *)
