(** Window-based timestamp replay protection (paper Sections 5.3/6.2),
    with an optional strict duplicate-suppression extension. *)

val minutes_of_seconds : float -> int
(** Timestamp encoding: whole minutes since the FBS epoch. *)

type t

val create : ?window_minutes:int -> ?strict:bool -> unit -> t

type verdict = Fresh | Stale | Duplicate

val probe :
  t ->
  now:float ->
  sfl:Sfl.t ->
  peer:Principal.t ->
  confounder:int ->
  timestamp:int ->
  verdict
(** The receive-prologue check, before the MAC: [Stale] outside the
    window; in strict mode [Duplicate] for an (sfl, peer, confounder,
    timestamp) already committed.  [peer] is the sender: an sfl is unique
    only per sender.  Counts its rejections and records nothing. *)

val commit :
  t -> sfl:Sfl.t -> peer:Principal.t -> confounder:int -> timestamp:int -> bool
(** Accept a datagram whose MAC verified.  In strict mode its key is
    tested again and recorded; [false] means a copy committed since the
    probe, counted as a duplicate.  [true] counts one [accepted]. *)

type stats = { accepted : int; rejected_stale : int; rejected_duplicate : int }
(** [accepted] counts successful commits — datagrams whose MAC verified;
    [rejected_duplicate] counts duplicates found by either call. *)

val stats : t -> stats

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register pull-probes ([accepted], [rejected.stale],
    [rejected.duplicate], [window.entries]) under the registry's current
    prefix — scope it first, e.g.
    [register_metrics r (Metrics.sub m "fbs.replay")]. *)
