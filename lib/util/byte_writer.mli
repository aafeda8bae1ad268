(** Growable big-endian (network byte order) byte writer. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val u8 : t -> int -> unit
(** Append one byte (low 8 bits of the argument). *)

val u16 : t -> int -> unit
(** Append a 16-bit big-endian value. *)

val u32 : t -> int32 -> unit
(** Append a 32-bit big-endian value. *)

val u32_int : t -> int -> unit
(** Append the low 32 bits of a native int, big-endian. *)

val u64 : t -> int64 -> unit
(** Append a 64-bit big-endian value. *)

val bytes : t -> string -> unit
(** Append a raw byte string. *)

val substring : t -> string -> int -> int -> unit
(** [substring t s pos len] appends [len] bytes of [s] starting at
    [pos] — one blit, no intermediate [String.sub].
    @raise Invalid_argument on bad bounds. *)

val reserve : t -> int -> Bytes.t * int
(** [reserve t n] grows the buffer by [n] bytes and returns
    [(buf, pos)]: the caller must write exactly [n] bytes into [buf]
    at [pos].  Lets codecs (e.g. block ciphers) produce output directly
    into the assembly buffer.  The returned buffer is invalidated by
    any subsequent append that grows the writer. *)

val contents : t -> string
(** Snapshot of everything written so far. *)

val finalize : t -> string
(** Like {!contents}, but when the written length equals the buffer
    capacity the backing buffer itself is returned without a copy (the
    one-allocation wire-assembly path: create with the exact capacity,
    fill, finalize).  The writer is reset and detached from the returned
    string either way. *)
