(** Hash-counter keystream cipher: block [i] of the keystream is
    [H(key | iv | be32 i)], XORed over the data — length-preserving,
    self-inverse (encrypt = decrypt), and built entirely from the hash
    primitives already in the suite descriptor, so a non-DES
    confidentiality suite needs no new block-cipher core.

    The key absorption is frozen once per instance as a {!Hash.midstate}
    (the same per-flow precomputation trick the MAC path uses), so each
    keystream block costs one midstate resume over 12 counter bytes.

    Security note: this is the classic hash-CTR construction (cf. the
    CryptoLib era the paper draws from) — fine for the repository's
    measurement purposes, not an argument against a real AEAD. *)

type t

val create : Hash.t -> key:string -> t
(** Freeze the key absorption for [H]. *)

val transform_into :
  t ->
  iv:string ->
  src:string ->
  src_pos:int ->
  src_len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  unit
(** XOR [src[src_pos..src_pos+src_len)] with the keystream into
    [dst[dst_pos..)], counter starting at 0.  Self-inverse.  [iv] must
    be 8 bytes (the duplicated-confounder IV).
    @raise Invalid_argument on bad ranges or IV length. *)

val transform : t -> iv:string -> string -> string
(** Whole-string convenience (used by the string-based reference path). *)
