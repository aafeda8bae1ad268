(** The one-pass seal (the Section 5.3 data-touching optimization): a
    DES-CBC encryption and the MD5 MAC over the same bytes computed in
    one loop.  Alone, a job runs on [Des_kernel.cbc_encrypt_md5], which
    interleaves one MD5 compression with every four DES blocks, four
    rounds to one MD5 quad; a pair of jobs runs its MACs on {!Md5} and
    its chains on the two-chain kernel.  Bit-identical to the separate
    passes either way. *)

type job
(** One datagram's pending seal: a {!Des.cbc_job} for the body, the
    MAC's resumed MD5 context, and the slot its MAC is written to. *)

val job :
  md5:Md5.ctx ->
  key:Des.key ->
  iv:string ->
  src:string ->
  src_pos:int ->
  src_len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  mac_dst:Bytes.t ->
  mac_pos:int ->
  job
(** [md5] is a context from {!Mac.resume_md5} having absorbed the MAC
    input that precedes the source (the job owns it from here); the MAC
    is its digest over that input and the source, and its 16 bytes go
    to [mac_dst] at [mac_pos].  The
    ciphertext goes where {!Des.cbc_job} puts it; the source is borrowed
    until the job runs.  A job runs once.
    @raise Invalid_argument on a bad MAC slot, or as {!Des.cbc_job}. *)

val run : job -> int
(** Runs a job alone, in one pass.  Returns the blocks encrypted. *)

val run_pair : job -> job -> int
(** Runs two jobs: both MACs, then both chains side by side on the
    two-chain kernel ({!Des.encrypt_cbc_pair}).  Returns the blocks
    encrypted by both. *)

val mac_and_encrypt :
  mac_key:string ->
  des_key:Des.key ->
  iv:string ->
  prefix_parts:string list ->
  string ->
  string * string
(** [(mac, ciphertext)]: prefix-MD5 MAC over key|prefix|payload and
    DES-CBC ciphertext of the payload, computed in one pass (a lone
    {!job}). *)

val mac_then_encrypt :
  mac_key:string ->
  des_key:Des.key ->
  iv:string ->
  prefix_parts:string list ->
  string ->
  string * string
(** Reference two-pass implementation. *)
