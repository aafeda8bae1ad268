(** CRC-32 (IEEE 802.3, reflected).

    Used both as a checksum and, per Section 5.3 of the paper, as the
    randomising hash for cache indexing of correlated keys. *)

val string : string -> int
(** [string s] is the CRC-32 of [s] as a non-negative int in [0, 2^32). *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] continues a running CRC over [s.[pos..pos+len-1]].
    Start from [0].
    @raise Invalid_argument if the range is not within [s]. *)

val update_byte : int -> int -> int
(** Fold one byte (low 8 bits) into a running CRC. *)

val update_int32 : int -> int -> int
(** Fold the low 32 bits of an int, big-endian byte order. *)

val update_int64 : int -> int64 -> int
(** Fold a 64-bit value, big-endian byte order. *)
