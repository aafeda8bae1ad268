(** Reference DES: the original generic bit-gather kernel, retained as the
    differential-testing oracle for the fast table-driven kernel in
    {!Fbsr_crypto.Des_kernel}/{!Fbsr_crypto.Des}.  Bit-by-bit
    transliteration of FIPS 46/81 — slow, auditable, and never called
    from a hot path. *)

val block_size : int
val key_size : int

type key

val of_string : string -> key
(** 8 bytes; no weak-key check (the oracle accepts any key). *)

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64

type mode = Ecb | Cbc | Cfb | Ofb

val pad : string -> string
val unpad : string -> string
val encrypt_ecb : ?confounder:string -> key -> string -> string
val decrypt_ecb : ?confounder:string -> key -> string -> string
val encrypt_cbc : iv:string -> key -> string -> string
val decrypt_cbc : iv:string -> key -> string -> string
val encrypt_cfb : iv:string -> key -> string -> string
val decrypt_cfb : iv:string -> key -> string -> string
val encrypt_ofb : iv:string -> key -> string -> string
val decrypt_ofb : iv:string -> key -> string -> string
val encrypt : mode:mode -> iv:string -> key -> string -> string
val decrypt : mode:mode -> iv:string -> key -> string -> string
