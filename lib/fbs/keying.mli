(** Zero-message keying: implicit Diffie-Hellman master keys, flow-key
    derivation, and the PVC/MKC levels of the Figure 5 cache hierarchy. *)

type error =
  | No_certificate of string
  | Bad_certificate of string
  | Wrong_group of string

type fetch_result = (Fbsr_cert.Certificate.t, string) result

type resolver = Principal.t -> (fetch_result -> unit) -> unit
(** Continuation-passing certificate fetch (the MKD's job).  May complete
    inline (local directory) or after a network round trip. *)

type counters = {
  mutable master_key_computations : int;
  mutable certificate_fetches : int;
  mutable certificate_verifications : int;
}

type t

val create :
  local:Principal.t ->
  group:Fbsr_crypto.Dh.group ->
  private_value:Fbsr_crypto.Dh.private_value ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  resolver:resolver ->
  clock:(unit -> float) ->
  unit ->
  t
(** Certificates are verified under [ca_public] (an RSA signature over
    MD5, {!Fbsr_cert.Certificate.verify}).  The PVC and the MKC are 2-way
    caches of 64 sets each.  A miss calls
    [resolver] once; its failure completes every waiter with
    [No_certificate] (retransmission is the resolver's job). *)

val local : t -> Principal.t
val counters : t -> counters
val pvc : t -> (string, Fbsr_cert.Certificate.t) Cache.t

val mkc : t -> (string, string * float) Cache.t
(** Master keys with the expiry of the certificate they derive from; an
    expired entry is treated as a miss and the stale certificate is dropped
    from the PVC. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register pull-probes for every {!counters} field under the registry's
    current prefix — scope it first, e.g.
    [register_metrics k (Metrics.sub m "fbs.keying")].  The PVC/MKC caches
    are not included; register them via {!Cache.register_metrics}. *)

val get_master : t -> Principal.t -> ((string, error) result -> unit) -> unit
val get_master_sync : t -> Principal.t -> (string, error) result

val last_resolution : t -> string
(** Which cache level satisfied the most recent {!get_master} completion:
    ["mkc"], ["pvc"] or ["fetch"] (["none"] before any resolution).
    Stable inside the completion's continuation (completions run it
    synchronously); used by span instrumentation for miss attribution. *)

val pin_certificate : t -> Fbsr_cert.Certificate.t -> unit

val flow_key :
  sfl:Sfl.t ->
  master:string ->
  src:Principal.t ->
  dst:Principal.t ->
  string
(** [K_f = MD5(sfl | K_{S,D} | S | D)]. *)

val pp_error : Format.formatter -> error -> unit
