(* Algorithm suites — the paper's "algorithm identification field, which
   specifies the cryptographic algorithms used (e.g., for MAC computation,
   encryption)" (Section 5.2).  A suite fixes the key-derivation hash H,
   the MAC construction and its hash, and the cipher mode for optional
   confidentiality. *)

type cipher = Des_cbc | Des3_cbc | Sha1_ctr

type t = {
  id : int; (* wire identifier *)
  kdf_hash : Fbsr_crypto.Hash.t; (* H in K_f = H(sfl | K | S | D) *)
  mac_algorithm : Fbsr_crypto.Mac.algorithm;
  mac_hash : Fbsr_crypto.Hash.t;
  mac_length : int; (* truncated MAC bytes on the wire *)
  cipher : cipher;
}

(* Suite 0 is the paper's own implementation choice: keyed (prefix) MD5 for
   both H and the MAC, DES-CBC for confidentiality, full 128-bit MAC. *)
let paper_md5_des =
  {
    id = 0;
    kdf_hash = Fbsr_crypto.Hash.md5;
    mac_algorithm = Fbsr_crypto.Mac.Prefix;
    mac_hash = Fbsr_crypto.Hash.md5;
    mac_length = 16;
    cipher = Des_cbc;
  }

(* Modern-construction variant: HMAC instead of the prefix MAC. *)
let hmac_md5_des = { paper_md5_des with id = 1; mac_algorithm = Fbsr_crypto.Mac.Hmac }

(* SHS variant the paper mentions as a candidate (MAC truncated to 128 bits
   to keep the header layout unchanged, a trade-off Section 5.3 endorses). *)
let sha1_des =
  {
    id = 2;
    kdf_hash = Fbsr_crypto.Hash.sha1;
    mac_algorithm = Fbsr_crypto.Mac.Prefix;
    mac_hash = Fbsr_crypto.Hash.sha1;
    mac_length = 16;
    cipher = Des_cbc;
  }

(* Footnote 12: "For efficiency, DES could have been used for both
   encryption and MAC computation" — a suite with an 8-byte DES-CBC-MAC
   instead of keyed MD5. *)
let des_mac_des =
  {
    id = 3;
    kdf_hash = Fbsr_crypto.Hash.md5;
    mac_algorithm = Fbsr_crypto.Mac.Des_cbc_mac;
    mac_hash = Fbsr_crypto.Hash.md5; (* unused by the DES MAC *)
    mac_length = 8;
    cipher = Des_cbc;
  }

(* Extension: 3DES confidentiality for deployments worried about single-DES
   key lifetime (the Section 5.2 "wear out" discussion). *)
let md5_des3 =
  {
    id = 4;
    kdf_hash = Fbsr_crypto.Hash.md5;
    mac_algorithm = Fbsr_crypto.Mac.Prefix;
    mac_hash = Fbsr_crypto.Hash.md5;
    mac_length = 16;
    cipher = Des3_cbc;
  }

(* The first post-refactor leaf suite, proving the armor seam: HMAC-SHA1
   authentication (full 160-bit tag) over a non-DES cipher — a SHA-1
   counter-mode keystream ({!Fbsr_crypto.Keystream}) with a 4-byte
   authenticate-only payload prefix (the SST FlowArmor "encofs" idea:
   leading transport words stay readable in flight but are still MACed). *)
let hmac_sha1_ctr =
  {
    id = 5;
    kdf_hash = Fbsr_crypto.Hash.sha1;
    mac_algorithm = Fbsr_crypto.Mac.Hmac;
    mac_hash = Fbsr_crypto.Hash.sha1;
    mac_length = 20;
    cipher = Sha1_ctr;
  }

(* "Nullified" crypto for the FBS NOP measurement in Figure 8: header
   processing and flow management run, MAC and encryption are identity
   operations. *)
let nop =
  {
    id = 255;
    kdf_hash = Fbsr_crypto.Hash.md5;
    mac_algorithm = Fbsr_crypto.Mac.Prefix;
    mac_hash = Fbsr_crypto.Hash.md5;
    mac_length = 16;
    cipher = Des_cbc;
  }

let is_nop t = t.id = 255

let all =
  [ paper_md5_des; hmac_md5_des; sha1_des; des_mac_des; md5_des3; hmac_sha1_ctr; nop ]

let of_id id = List.find_opt (fun s -> s.id = id) all

let name t =
  match t.id with
  | 0 -> "md5/des-cbc (paper)"
  | 1 -> "hmac-md5/des-cbc"
  | 2 -> "sha1/des-cbc"
  | 3 -> "des-mac/des-cbc (footnote 12)"
  | 4 -> "md5/3des-cbc"
  | 5 -> "hmac-sha1/sha1-ctr"
  | 255 -> "nop"
  | n -> Printf.sprintf "suite-%d" n
