(** The pre-refactor string-based seal/open datapath, retained as a
    reference implementation for the differential suite
    (test/test_slice.ml) and for the in-artifact allocation comparison
    of [bench/main.exe --json].

    Byte-compatible with the engine: [seal] with the confounder and
    timestamp taken from an engine-produced wire reproduces that wire
    exactly, and [open_] accepts engine output (and vice versa). *)

val auth_bytes : Fbsr_fbs.Header.t -> string
val confounder_bytes : Fbsr_fbs.Header.t -> string
val timestamp_bytes : Fbsr_fbs.Header.t -> string
(** The header fields as the MAC covers them: the suite id and flags
    bytes, then the big-endian confounder and timestamp. *)

val confounder_iv : Fbsr_fbs.Header.t -> string
(** The confounder duplicated into a 64-bit DES IV (Section 7.2). *)

val mac : key:string -> string list -> string
(** The paper's keyed-MD5 MAC of the concatenated parts, computed the
    string way: what {!Fbsr_crypto.Mac.compute_midstate} must equal. *)

val seal :
  suite:Fbsr_fbs.Suite.t ->
  flow_key:string ->
  sfl:Fbsr_fbs.Sfl.t ->
  secret:bool ->
  confounder:int ->
  timestamp:int ->
  payload:string ->
  unit ->
  string

type open_error = [ `Header of Fbsr_fbs.Header.error | `Bad_mac | `Decrypt ]

val open_ :
  suite:Fbsr_fbs.Suite.t ->
  flow_key:string ->
  wire:string ->
  unit ->
  (Fbsr_fbs.Header.t * string, open_error) result
(** Decode, decrypt and verify one wire datagram (no replay or keying
    machinery — the differential suite exercises those through the
    engine itself). *)
