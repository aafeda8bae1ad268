(* A common interface over the hash functions, so a caller that hashes
   (certificate signatures, the keyed-hash MAC constructions, the crypto
   table) can be handed either one at run time. *)

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
