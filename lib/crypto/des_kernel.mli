(** The fast table-driven DES kernel shared by {!Des} and {!Fused}.
    Halves are carried in a shifted-doubled form whose two windows are
    the E-expansion's two rotations, so a round is two XORs, eight
    lookups into one fused SP table and an OR tree; IP/FP are
    byte-indexed; everything runs on untagged native [int]s.  See
    DESIGN.md §6c "Cipher kernels" for the layout derivation;
    [Fbsr_oracles.Des_ref] (a test-only library) is the slow oracle this
    kernel is differentially tested against.

    This is a low-level internal module: the load/store helpers and the
    CBC drivers skip bounds checks.  Callers (the mode loops in
    [Des]) validate ranges once per call.  Nothing here allocates. *)

val schedule : string -> int array
(** [schedule s] expands the key in the first 8 bytes of [s] into its
    encrypt-order round words (32 ints: two packed subkey words per
    round).  The same array decrypts: {!rounds_inv}, {!crypt_inv} and
    {!cbc_decrypt} walk it from round 15 down.  Raises
    [Invalid_argument] when [s] is shorter than 8 bytes.  Table-driven:
    PC-1 is 8 byte-indexed lookups and each round's PC-2 is 8 lookups by
    7-bit chunk of C‖D, about 0.25 µs a key (DESIGN.md §6c); the engine
    still caches the result per flow.  Parity bits (the low bit of each
    byte) are ignored. *)

val cbc_encrypt :
  int array -> int array -> string -> int -> int -> Bytes.t -> int -> unit
(** [cbc_encrypt ks chain src src_pos n dst dst_pos] CBC-encrypts the [n]
    whole blocks at [src_pos] into [dst] at [dst_pos], chaining from the
    ciphertext block in [chain] ([chain.(0)] high word, [chain.(1)] low
    word) and leaving the last ciphertext block there.  The chain stays in
    registers, in IP space, between the first and last block. *)

val cbc_encrypt2 :
  int array -> int array -> string -> int -> Bytes.t -> int -> int ->
  int array -> int array -> string -> int -> Bytes.t -> int -> int -> unit
(** [cbc_encrypt2 ka cha sa pa da qa na kb chb sb pb db qb nb] is
    [cbc_encrypt ka cha sa pa na da qa] and
    [cbc_encrypt kb chb sb pb nb db qb] run as two independent chains in
    one loop, each with its own schedule, chain, source and destination.
    One CBC chain is a serial run of table lookups that leaves most issue
    slots idle; the second chain's rounds fill them.  The chains advance
    block for block while both have blocks left; the longer one then
    finishes on the one-lane loop.  The two destination regions must not
    overlap either source region (DESIGN.md §6c). *)

val cbc_encrypt_md5 :
  int array -> int array -> string -> int -> Bytes.t -> int ->
  int array -> string -> int -> string -> int -> int -> unit
(** [cbc_encrypt_md5 ks chain src src_pos dst dst_pos st first first_pos
    rest rest_pos ncomp] is [cbc_encrypt ks chain src src_pos (4 * ncomp)
    dst dst_pos] with [ncomp] MD5 compressions run beside it, one per
    four DES blocks, interleaved four rounds to one MD5 quad.  MD5 block
    0 is the 64 bytes of [first] at [first_pos], block [k > 0] those of
    [rest] at [rest_pos + 64 (k - 1)]; the chaining words [st.(0..3)]
    are updated in place (masked).  The steps are [Md5]'s.  Message-word
    scratch is per domain. *)

val cbc_decrypt :
  int array -> ivh:int -> ivl:int -> string -> int -> int -> Bytes.t -> int -> unit
(** [cbc_decrypt ks ~ivh ~ivl src pos n dst dst_pos] CBC-decrypts the [n]
    whole blocks at [pos] into [dst] at [dst_pos] under the schedule [ks]
    (from {!schedule}, walked backwards), the first block chained from
    [(ivh, ivl)].  Two blocks run per iteration as independent chains. *)

val crypt : int array -> int array -> unit
(** [crypt ks io] is one full DES encryption (IP, sixteen rounds, FP) in
    place on [io.(0)] (high word) and [io.(1)] (low word). *)

val crypt_inv : int array -> int array -> unit
(** [crypt_inv ks io] is the DES decryption that undoes [crypt ks]. *)

val read32 : string -> int -> int
(** Big-endian 32-bit load; no bounds check. *)

val write32 : Bytes.t -> int -> int -> unit
(** Big-endian 32-bit store; no bounds check. *)
