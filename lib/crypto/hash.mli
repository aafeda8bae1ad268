(** Run-time-selectable hash functions. *)

module type S = sig
  val name : string
  val digest_size : int
  val block_size : int

  type ctx

  val init : unit -> ctx

  val copy : ctx -> ctx
  (** Independent snapshot of a streaming context. *)

  val update : ctx -> string -> unit
  val feed : ctx -> string -> int -> int -> unit

  val feed_slice : ctx -> Fbsr_util.Slice.t -> unit
  (** Streaming input from a borrowed byte view — no copy. *)

  val final : ctx -> string
  val digest : string -> string
  val digest_list : string list -> string
end

type t = (module S)

val md5 : t
val sha1 : t

val name : t -> string
val digest_size : t -> int
val digest_list : t -> string list -> string

val digest_slices : t -> Fbsr_util.Slice.t list -> string
(** Digest of the concatenation of the slice parts, with zero
    concatenation or copying (streams each part through [feed_slice]). *)

val of_name : string -> t
(** @raise Invalid_argument on unknown names. *)
