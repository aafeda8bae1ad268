(** Run-time-selectable hash functions (for the FBS algorithm-suite field). *)

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

(** {1 Midstates}

    A midstate freezes a streaming context — typically the compression
    state after absorbing a keyed prefix — so per-message digests resume
    from it instead of re-absorbing the prefix.  Absorption cost is paid
    once at construction; each resume pays only a small context copy. *)

type midstate

val midstate : t -> prefix:string -> midstate
(** The frozen state of [t] after absorbing [prefix]. *)

val resume_slices : midstate -> Fbsr_util.Slice.t list -> string
(** [resume_slices m parts] = [digest_slices h (prefix-as-slice :: parts)]
    for the [h] and [prefix] the midstate froze — byte-identical, without
    re-absorbing the prefix.  The midstate itself is not consumed: any
    number of resumes may follow, in any order. *)

val resume_list : midstate -> string list -> string
(** String-parts flavour of {!resume_slices}. *)
