(** The fast table-driven DES kernel shared by {!Des}, {!Des3}, {!Mac} and
    {!Fused}.  E-expansion fused into 8×64 SP tables, byte-indexed IP/FP,
    sixteen unrolled rounds on untagged native [int] halves.  See
    DESIGN.md §6c "Cipher kernels" for the layout derivation;
    [Fbsr_oracles.Des_ref] (a test-only library) is the slow oracle this
    kernel is differentially tested against.

    This is a low-level internal module: blocks travel in caller-owned
    2-element scratch arrays and the load/store helpers skip bounds
    checks.  Callers (the mode loops in [Des]/[Des3]) validate ranges
    once per call. *)

val schedule : string -> int array * int array
(** [schedule key] expands an 8-byte key into [(encrypt, decrypt)]
    round-word arrays (32 ints each: two packed subkey words per round,
    decrypt order reversed).  Raises [Invalid_argument] unless the key is
    exactly 8 bytes.  Expansion costs ~16 bit-gather permutes — do it
    once per key and cache (the engine caches per flow). *)

val ip : int array -> unit
(** Initial permutation, in place: [io.(0)] (high word) and [io.(1)] (low
    word) become the post-IP (L0, R0) halves.  16 table lookups. *)

val fp : int array -> unit
(** Final permutation, inverse of {!ip}, same convention. *)

val rounds : int array -> int array -> unit
(** [rounds ks io] runs the sixteen Feistel rounds with the packed
    schedule [ks] (from {!schedule}).  Input: post-IP (L0, R0); output:
    FIPS preoutput (R16, L16).  Chaining [rounds] calls back-to-back
    composes full DES passes with interior FP/IP cancelled — how [Des3]
    does EDE3 under a single IP/FP pair. *)

val read32 : string -> int -> int
(** Big-endian 32-bit load; no bounds check. *)

val write32 : Bytes.t -> int -> int -> unit
(** Big-endian 32-bit store; no bounds check. *)

(** {1 FIPS permutation tables}

    1-based source-bit tables (FIPS 46 numbering, bit 1 = MSB), exported
    for {!Des_bitslice}: in the bitsliced domain every permutation is a
    pure renaming of bit-vector words, so the kernels share one table
    transcription instead of each risking its own typo. *)

val ip_table : int array
(** Initial permutation (64 entries). *)

val fp_table : int array
(** Final permutation, inverse of {!ip_table} (64 entries). *)

val p_table : int array
(** Round-function P permutation over the 32 S-box output bits. *)
