(* A common interface over the hash functions, so the FBS algorithm-suite
   field can select the key-derivation hash H and the MAC hash at run time
   (the paper's "algorithm identification field", Section 5.2). *)

module type S = sig
  val name : string
  val digest_size : int
  val block_size : int

  type ctx

  val init : unit -> ctx
  val copy : ctx -> ctx
  val update : ctx -> string -> unit
  val feed : ctx -> string -> int -> int -> unit
  val feed_slice : ctx -> Fbsr_util.Slice.t -> unit
  val final : ctx -> string
  val digest : string -> string
  val digest_list : string list -> string
end

type t = (module S)

let md5 : t = (module Md5)
let sha1 : t = (module Sha1)

let name (module H : S) = H.name
let digest_size (module H : S) = H.digest_size
let digest_list (module H : S) parts = H.digest_list parts

(* Digest of the concatenation of slice parts — the zero-copy sibling of
   [digest_list]: each part streams through [feed_slice], nothing is
   concatenated. *)
let digest_slices (module H : S) (parts : Fbsr_util.Slice.t list) =
  let ctx = H.init () in
  List.iter (H.feed_slice ctx) parts;
  H.final ctx

let of_name = function
  | "md5" -> md5
  | "sha1" -> sha1
  | n -> invalid_arg ("Hash.of_name: unknown hash " ^ n)

(* A midstate is a frozen streaming context — typically the compression
   state after absorbing a keyed prefix — packed with its hash module so
   the existential context type never escapes.  Resuming copies the
   context first, so one midstate serves any number of digests.  Cost
   model: absorbing the prefix is paid once at construction; each resume
   pays one context copy (~80 bytes) instead. *)
type midstate = Mid : (module S with type ctx = 'a) * 'a -> midstate

let midstate ((module H : S) : t) ~prefix =
  let ctx = H.init () in
  H.update ctx prefix;
  Mid ((module H), ctx)

let resume_slices (Mid ((module H), mid)) (parts : Fbsr_util.Slice.t list) =
  let ctx = H.copy mid in
  List.iter (H.feed_slice ctx) parts;
  H.final ctx

let resume_list (Mid ((module H), mid)) parts =
  let ctx = H.copy mid in
  List.iter (H.update ctx) parts;
  H.final ctx
