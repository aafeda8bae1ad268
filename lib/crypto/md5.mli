(** MD5 message digest (RFC 1321), streaming implementation. *)

val digest_size : int
(** 16 bytes. *)

val block_size : int
(** 64 bytes. *)

val name : string

type ctx

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot: feeding or finalizing the copy leaves the
    original untouched (and vice versa). *)

val update : ctx -> string -> unit
val feed : ctx -> string -> int -> int -> unit
(** [feed ctx s pos len] hashes a slice without copying the whole string. *)

val feed_slice : ctx -> Fbsr_util.Slice.t -> unit
(** [feed] over a {!Fbsr_util.Slice.t} view — streaming input with zero
    copies. *)

val final : ctx -> string
(** Finish and return the 16-byte digest.  The context must not be reused. *)

val digest : string -> string
val digest_list : string list -> string
(** Digest of the concatenation of the parts, without concatenating. *)

val hexdigest : string -> string

(**/**)

(* Internal: what the one-pass seal ({!Des.encrypt_cbc_job_md5}, on the
   kernel [Des_kernel.cbc_encrypt_md5]) needs to run MD5's compression
   beside a DES-CBC chain — the step functions [compress] runs (state
   words [a b c d], [x] = K[i] + M[g], shift [s]; returns the new [a]),
   the constant table, the message-word load, and block-level access to
   a context. *)

val ff : int -> int -> int -> int -> int -> int -> int
val gg : int -> int -> int -> int -> int -> int -> int
val hh : int -> int -> int -> int -> int -> int -> int
val ii : int -> int -> int -> int -> int -> int -> int

val kx : int array -> int -> int -> int
(** [kx m i g] is K[i] + M[g], [m] the loaded message words. *)

val load : int array -> string -> int -> unit
(** [load m s off]: the sixteen little-endian words of the block at [off]. *)

val pending : ctx -> int
(** Bytes waiting in the partial block (0-63). *)

val open_block : ctx -> string -> int -> string
(** [open_block ctx s pos] completes the partial block from [s] at [pos]
    and returns a view of it: valid until the context is fed again. *)

val chain : ctx -> int array -> unit
(** The four chaining words into [st.(0..3)]. *)

val absorbed : ctx -> int array -> int -> unit
(** [absorbed ctx st n]: [st] holds the chaining words after whole
    blocks covering the partial block and [n] more input bytes were
    compressed outside the context; the partial block is empty. *)

val pad : ctx -> Bytes.t -> int
(** [pad ctx dst] writes the partial block and the padding into [dst]
    (at least 128 bytes) and returns their block count, 1 or 2; the
    context is unchanged. *)

val closed : ctx -> int array -> string
(** [closed ctx st]: [st] holds the chaining words after the blocks of
    {!pad} were compressed outside the context; the digest, as {!final}
    would return it.  The context must not be reused. *)
