(** Bitsliced DES: up to 63 independent blocks advance one round per
    word-parallel step, each lane owning one bit position of a native
    [int] (bit 63 is never used — OCaml ints are 63-bit).  CBC
    serializes blocks {e within} a flow but not {e across} flows, so the
    gateway batches pending chains from distinct flows and runs them in
    lockstep here; a single datagram's CBC {e decrypt} side has no
    cross-block dependency either, so receive slices one ciphertext
    across lanes.  Differentially pinned to {!Des} / {!Des_kernel} /
    [Fbsr_oracles.Des_ref] (a test-only library) by test/test_crypto.ml;
    layout derivation in DESIGN.md §6c.

    Scratch is domain-local ({!Fbsr_util.Domain_shim.local_make}): each
    domain owns a private set of lane matrices, so the sharded engine's
    per-shard receive pipelines may call into this module concurrently.
    Within one domain the module is still not re-entrant. *)

val lanes : int
(** Lanes per pass: 63. *)

val break_even_lanes : int
(** The fewest lanes a single-key decrypt pass must fill to run
    bitsliced: a pass costs about the same at any occupancy, so below
    [pass cost / scalar block cost] lanes the table-driven kernel is
    cheaper.  Derivation in DESIGN.md §6c. *)

(** {1 Single-block lanes}

    Differential-testing entry points: lane [i] processes [blocks.(i)]
    (8 bytes) under [keys.(i)].  Any number of blocks — chunked
    internally into ≤[lanes] groups, so ragged and oversize batches
    exercise the same scatter/gather. *)

val encrypt_block_lanes : Des.key array -> string array -> string array
val decrypt_block_lanes : Des.key array -> string array -> string array

(** {1 Cross-flow CBC encryption} *)

type cbc_job
(** One flow's pending CBC chain: key, IV snapshot, a source substring
    to encrypt and a caller-owned destination region that receives the
    [Des.padded_length] ciphertext. *)

val cbc_job :
  key:Des.key ->
  iv:string ->
  src:string ->
  src_pos:int ->
  src_len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  cbc_job
(** Validates ranges and snapshots the 8-byte [iv] (the job holds no
    reference to it, so callers may reuse IV scratch buffers).
    @raise Invalid_argument on bad ranges or IV length. *)

val encrypt_cbc_jobs : ?threshold:int -> cbc_job array -> int * int
(** Runs every job to completion, byte-identical to
    [Des.encrypt_cbc_into] per job.  Jobs are cut into groups of
    ≤[lanes]; a group of at least [threshold] (default 24) advances
    bitsliced in lockstep, smaller groups — including the ragged tail of
    a large batch — fall back to the scalar kernel.  Returns
    [(bitsliced_blocks, scalar_blocks)] so callers and tests can assert
    which path ran. *)

(** {1 Cross-flow CBC decryption} *)

type dec_job
(** One received frame's pending CBC decrypt: decrypt key schedule, IV
    snapshot, a borrowed ciphertext substring, and the exact-size
    plaintext buffer the run fills in.  The ciphertext is {e borrowed},
    not copied — it must stay valid until {!decrypt_cbc_jobs} runs. *)

val dec_job :
  key:Des.key -> iv:string -> src:string -> src_pos:int -> src_len:int ->
  dec_job
(** Validates ranges, then scalar-decrypts the {e final} block up front:
    its PKCS#7 padding byte sizes the plaintext allocation (the job's
    single allocation), and a corrupt-padding frame is rejected here —
    before it occupies a batch lane — so batched and scalar receive fail
    at the same point with the same exception.  The final block's bytes
    are already written into the output; the remaining [src_len/8 - 1]
    full blocks are owed by the run.
    @raise Invalid_argument on bad ranges, bad IV length, a [src_len]
    that is zero or not a multiple of 8, or corrupt padding (message
    ["Des.decrypt_cbc_sub: corrupt padding"], matching the scalar
    path). *)

val dec_job_out : dec_job -> Bytes.t
(** The job's plaintext buffer.  Fully valid only after
    {!decrypt_cbc_jobs} has run over the job (the final-block tail is
    valid from construction). *)

val decrypt_cbc_jobs : ?threshold:int -> dec_job array -> int * int
(** Runs every job's remaining full blocks, byte-identical to
    {!Des.decrypt_cbc_sub} per job.  Jobs are cut into groups of
    ≤[lanes]; a group of at least [threshold] (default 24) advances
    bitsliced in lockstep under per-lane key schedules.  Smaller groups
    fall back per job to what {!decrypt_cbc_sub} would have done: the
    job's blocks in passes of ≤[lanes], a pass of at least
    {!break_even_lanes} bitsliced under the broadcast key and a shorter
    one through the table-driven kernel — so a sparse batch never
    regresses below the unbatched path.  Returns
    [(bitsliced_blocks, scalar_blocks)], the blocks each kernel ran;
    final blocks (decrypted at construction) are not counted, so the
    sum over a run equals the total of per-job full blocks. *)

(** {1 Single-ciphertext CBC decryption} *)

val decrypt_cbc_sub :
  ?threshold:int ->
  iv:string ->
  Des.key ->
  src:string ->
  pos:int ->
  len:int ->
  string
(** Drop-in equivalent of {!Des.decrypt_cbc_sub} (same results, same
    [Invalid_argument] on corrupt padding): decrypts the last block
    scalar to learn the padding, then cuts the remaining blocks into
    passes of ≤[lanes].  A pass that fills at least [threshold] lanes
    (default {!break_even_lanes}) runs bitsliced under a broadcast key
    schedule, loaded once and only if some pass runs; the blocks of a
    shorter pass run through the table-driven kernel.  A ciphertext
    with fewer than [threshold] blocks besides the last delegates to
    {!Des.decrypt_cbc_sub} whole. *)
