(** Algorithm suites selected by the FBS header's algorithm-identification
    field. *)

type cipher = Des_cbc | Des3_cbc | Sha1_ctr

type t = {
  id : int;
  kdf_hash : Fbsr_crypto.Hash.t;
  mac_algorithm : Fbsr_crypto.Mac.algorithm;
  mac_hash : Fbsr_crypto.Hash.t;
  mac_length : int;
  cipher : cipher;
}

val paper_md5_des : t
(** The paper's implementation: keyed MD5 + DES-CBC (suite id 0). *)

val hmac_md5_des : t
val sha1_des : t

val des_mac_des : t
(** DES for both encryption and MAC (paper footnote 12); 8-byte tag. *)

val md5_des3 : t
(** 3DES-CBC confidentiality (extension for the key "wear out" concern). *)

val hmac_sha1_ctr : t
(** HMAC-SHA1 (160-bit tag) + SHA-1 counter-mode keystream with a 4-byte
    authenticate-only payload prefix (suite id 5) — added as one armor
    module plus one entry in [Armors.all], with no engine edits. *)

val nop : t
(** "Nullified" encryption and MAC, for the Figure 8 FBS NOP measurement. *)

val is_nop : t -> bool
val all : t list
val of_id : int -> t option
val name : t -> string
