(** The security flow header (Figure 2 of the paper, Section 7.2 sizes):
    sfl 64 b | suite 8 b | flags 8 b | confounder 32 b | timestamp 32 b |
    MAC 128 b. *)

type t = {
  sfl : Sfl.t;
  suite : Suite.t;
  secret : bool;
  confounder : int;
  timestamp : int;
  mac : string;
}

val mac_length : int
(** The MAC field: 16 bytes, the full keyed-MD5 MAC. *)

val size : int
(** The whole header: 18 bytes of fields ahead of the MAC, then the
    MAC. *)

val encode : t -> string
(** One allocation: assembled in an exact-capacity writer whose backing
    buffer is stolen by {!Fbsr_util.Byte_writer.finalize}. *)

val encode_fields_into :
  Fbsr_util.Byte_writer.t ->
  sfl:Sfl.t ->
  suite:Suite.t ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  unit
(** The fixed fields up to (but excluding) the MAC — for seal paths that
    write the MAC and body into the same buffer afterwards. *)

type error = Truncated | Unknown_suite of int | Bad_flags of int

val decode : string -> (t * string, error) result
(** Returns the header and the remaining bytes (the protected body).
    Copies the MAC and body out of the wire buffer; retained as the
    reference implementation — hot paths use {!decode_view}. *)

(** Zero-copy decode result: scalar fields parsed eagerly, MAC and body
    borrowed from the wire buffer as slices.  The slices are valid only
    while the wire buffer is; copy ({!Fbsr_util.Slice.to_string}) before
    retaining them past datagram processing. *)
type view = {
  v_sfl : Sfl.t;
  v_suite : Suite.t;
  v_secret : bool;
  v_confounder : int;
  v_timestamp : int;
  v_mac : Fbsr_util.Slice.t;
  v_body : Fbsr_util.Slice.t;
}

val decode_view : Fbsr_util.Slice.t -> (view, error) result

val to_header : view -> t
(** Materialize a header record (copies the MAC). *)

val mac_prelude_size : int
(** 10: suite and flags bytes plus confounder and timestamp encodings —
    everything the MAC covers ahead of the payload. *)

val write_mac_prelude :
  Bytes.t -> suite:Suite.t -> secret:bool -> confounder:int -> timestamp:int -> unit
(** Fill a caller-owned scratch buffer (>= {!mac_prelude_size} bytes)
    with the bytes the MAC covers ahead of the payload: the suite and
    flags bytes (the algorithm-identification field is authenticated, a
    hardening of the paper's sketch), then the big-endian confounder and
    timestamp.  Allocation-free, for reusable per-engine scratch. *)

val write_confounder_iv : Bytes.t -> confounder:int -> unit
(** Fill the first 8 bytes of a caller-owned scratch buffer with the
    32-bit confounder duplicated into a 64-bit DES IV (Section 7.2). *)
