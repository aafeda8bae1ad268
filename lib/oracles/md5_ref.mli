(** MD5 reference implementation: the pre-kernel-rewrite streaming
    [Md5], retained verbatim as the differential oracle the test battery
    pins the unrolled kernel to (the [Des_ref] pattern).  Same interface
    as {!Fbsr_crypto.Md5}; not used on any datapath. *)

val digest_size : int
val block_size : int
val name : string

type ctx

val init : unit -> ctx
val copy : ctx -> ctx
val update : ctx -> string -> unit
val feed : ctx -> string -> int -> int -> unit
val feed_slice : ctx -> Fbsr_util.Slice.t -> unit
val final : ctx -> string
val digest : string -> string
val digest_list : string list -> string
val hexdigest : string -> string
