(** Triple DES (EDE3) with CBC mode — extension suite for the paper's key
    "wear out" concern. *)

type key

val of_string : string -> key
(** 24 bytes. *)

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64
val encrypt_cbc_into :
  iv:string ->
  key ->
  src:string ->
  src_pos:int ->
  src_len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  int
(** CBC-encrypt a sub-range directly into [dst]; see
    {!Des.encrypt_cbc_into}.  Returns the bytes written. *)

val decrypt_cbc_sub : iv:string -> key -> src:string -> pos:int -> len:int -> string
(** CBC-decrypt a sub-range allocating only the exact plaintext; see
    {!Des.decrypt_cbc_sub}. *)
