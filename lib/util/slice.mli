(** A borrowed [{base; off; len}] view of a byte string.

    Slices let the datagram datapath pass sub-ranges of wire buffers
    without copying.  A slice borrows its base: it is valid only while
    the base buffer is, and data that outlives the current datagram's
    processing (cache entries, application payloads) must be copied out
    with {!to_string}.  See DESIGN.md, "Datapath and buffer ownership". *)

type t = private { base : string; off : int; len : int }

val v : ?off:int -> ?len:int -> string -> t
(** [v ?off ?len base] views [base] from [off] (default 0) for [len]
    bytes (default: to the end).  @raise Invalid_argument on bad bounds. *)

val of_string : string -> t
(** Whole-string view; zero-copy both ways ({!to_string} returns the
    base itself for whole-base slices). *)

val of_bytes_unsafe : Bytes.t -> t
(** Zero-copy view of a mutable scratch buffer.  The caller promises not
    to mutate the buffer while the slice is being consumed (the
    per-engine scratch idiom: fill, feed, refill). *)

val base : t -> string
val length : t -> int

val get : t -> int -> char
(** @raise Invalid_argument out of bounds. *)

val unsafe_get : t -> int -> char

val sub : t -> pos:int -> len:int -> t
(** Narrow the view; no copy.  @raise Invalid_argument on bad bounds. *)

val to_string : t -> string
(** Materialize.  Returns the base itself (no copy) when the slice
    covers the whole base. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit t dst dst_pos] copies the slice's bytes into [dst]. *)

val equal : t -> t -> bool
(** Structural byte equality.  Not constant-time — MAC comparison must
    use [Ct.equal_slice]. *)

val append : Byte_writer.t -> t -> unit
(** Append the slice's bytes to an assembly buffer (single blit). *)
