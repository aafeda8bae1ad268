(** Reference DES: the original generic bit-gather kernel, retained as the
    differential-testing oracle for the fast table-driven kernel in
    {!Fbsr_crypto.Des_kernel}/{!Fbsr_crypto.Des}.  Bit-by-bit
    transliteration of FIPS 46/81 — slow, auditable, and never called
    from a hot path. *)

type key

val of_string : string -> key
(** 8 bytes; no weak-key check (the oracle accepts any key). *)

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64

val encrypt_cbc : iv:string -> key -> string -> string
val decrypt_cbc : iv:string -> key -> string -> string
(** CBC with PKCS#7 padding, as {!Fbsr_crypto.Des.encrypt_cbc}. *)
