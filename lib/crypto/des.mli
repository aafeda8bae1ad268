(** DES (FIPS 46) in CBC mode (FIPS 81).

    The FBS protocol uses the per-datagram confounder as the CBC IV
    (paper, Section 5.2). *)

exception Weak_key

type key

val of_string : ?check_weak:bool -> string -> key
(** Expand an 8-byte key into the sixteen round subkeys, held once, in
    encrypt order: decryption walks them backwards.
    @raise Weak_key when [check_weak] and the key is one of the four weak
    keys.
    @raise Invalid_argument on wrong length. *)

val of_prefix : string -> key
(** The key of the first 8 bytes of a longer string, as
    [of_string (String.sub s 0 8)] without the copy: how the engine keys
    DES from a 16-byte flow key.
    @raise Invalid_argument when [s] is shorter than 8 bytes. *)

val is_weak_key : string -> bool
val adjust_parity : string -> string
(** Force odd parity on every key byte, as FIPS 46 specifies. *)

val encrypt_block_bytes : key -> string -> string
val decrypt_block_bytes : key -> string -> string

val pad : string -> string
(** PKCS#7-style padding to a multiple of 8 bytes (always adds >= 1 byte). *)

val unpad : string -> string
(** @raise Invalid_argument on corrupt padding. *)

val encrypt_cbc : iv:string -> key -> string -> string
val decrypt_cbc : iv:string -> key -> string -> string

val padded_length : int -> int
(** CBC ciphertext length for an [n]-byte plaintext (next multiple
    of 8; padding always adds 1-8 bytes). *)

val encrypt_cbc_into :
  iv:string ->
  key ->
  src:string ->
  src_pos:int ->
  src_len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  int
(** CBC-encrypt [src[src_pos, src_pos+src_len)] directly into [dst] at
    [dst_pos], padding on the fly — no intermediate padded copy, no
    output allocation.  Returns the bytes written
    ([padded_length src_len]).  Byte-identical to [encrypt_cbc] of the
    equivalent [String.sub].  @raise Invalid_argument on bad ranges. *)

val decrypt_cbc_sub : iv:string -> key -> src:string -> pos:int -> len:int -> string
(** CBC-decrypt the sub-range [src[pos, pos+len)] allocating only the
    exact unpadded plaintext (the padding length is learned by
    decrypting the final block first).
    @raise Invalid_argument on bad length or corrupt padding. *)

(** {1 Deferred CBC jobs}

    A seal batch parks one datagram's CBC encryption here and runs it
    beside the next one's on the two-chain kernel
    {!Des_kernel.cbc_encrypt2}: two datagrams' CBC chains are
    independent, so the second fills the issue slots the first's serial
    chain leaves idle.  A pair is never slower than its two chains one
    after the other (DESIGN.md §6c).  A seal's job is a {!Fused.job}
    around one of these, which runs alone in one pass. *)

type cbc_job
(** One datagram's pending CBC encryption: key schedule, IV snapshot, a
    borrowed source substring and a caller-owned destination region that
    receives the [padded_length] ciphertext. *)

val cbc_job :
  key:key ->
  iv:string ->
  src:string ->
  src_pos:int ->
  src_len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  cbc_job
(** Validates ranges and snapshots the 8-byte [iv] (the job keeps no
    reference to it, so callers may reuse IV scratch).  The source is
    borrowed, not copied, until the job runs.  A job runs once: its
    chain advances as it does.
    @raise Invalid_argument on bad ranges or IV length. *)

val encrypt_cbc_pair : cbc_job -> cbc_job -> int
(** Runs two jobs as one two-chain pair, each byte-identical to
    {!encrypt_cbc_into}.  Returns the blocks encrypted by both. *)

val encrypt_cbc_jobs : cbc_job array -> int
(** Runs jobs [2i] and [2i+1] through {!encrypt_cbc_pair} and an odd
    last job alone.  Returns the blocks encrypted. *)

(**/**)

(* Internal: a job run alone with MD5 absorbing the job's source in
   the same pass — the one-pass seal's lone run ({!Fused}).  [md5] holds
   the MAC input that precedes the source; the result is the MD5 digest
   of that input and the source, and [md5] is spent. *)
val encrypt_cbc_job_md5 : cbc_job -> Md5.ctx -> string

(* Internal: the blocks a job encrypts, its padding block included. *)
val cbc_job_blocks : cbc_job -> int

(* Internal: [md5] absorbs a job's source — a paired seal's MAC, computed
   before its chain runs on the two-chain kernel ({!Fused}). *)
val feed_source_md5 : cbc_job -> Md5.ctx -> unit
