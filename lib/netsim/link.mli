(** Fault-injection link layer: a deterministic (seeded-RNG) stage between
    a host and its medium that can drop, duplicate, reorder (bounded delay
    queue), truncate and bit-flip frames, with per-link statistics.

    This is the adversarial-network substrate for the soft-state robustness
    claims of the paper's Sections 5.3 and 6: attach one with
    {!Host.set_link} and every egress frame passes through it. *)

type profile = {
  drop : float;  (** P(frame silently discarded) *)
  duplicate : float;  (** P(frame delivered twice) *)
  reorder : float;  (** P(frame held back so later frames overtake it) *)
  reorder_delay : float;  (** bound (seconds) on the reorder hold-back *)
  truncate : float;  (** P(frame cut to a random proper prefix) *)
  corrupt : float;  (** P(one random bit flipped) *)
}

val perfect : profile
(** All fault probabilities zero (10 ms reorder-delay bound, unused). *)

type stats = {
  mutable offered : int;
  mutable delivered : int;  (** deliveries performed, duplicates included *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable truncated : int;
  mutable corrupted : int;
}

val new_stats : unit -> stats
(** A zeroed statistics record (for aggregation across links). *)

type t

val create :
  ?seed:int -> ?profile:profile -> ?spans:Fbsr_util.Span.t -> Engine.t -> t
(** [spans] (default disabled) records one ["netsim.link"] span per
    delivery of a traced frame (the ambient {!Fbsr_util.Span.current} id
    at transmit time; untraced frames record nothing), with fault
    verdicts in the detail and a terminal ["drop:link"] outcome for
    dropped frames.  The ambient id is restored around each [deliver]
    callback, so the receive side joins the sender's trace.
    @raise Invalid_argument if a probability is outside [0,1] or
    [reorder_delay] is negative. *)

val set_profile : t -> profile -> unit
val stats : t -> stats

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register pull-probes for every {!stats} field under the registry's
    current prefix — scope it first, e.g.
    [register_metrics l (Metrics.sub m "netsim.link")].  Registering
    several links under one scope sums their statistics. *)

val transmit : t -> deliver:(string -> unit) -> string -> unit
(** Pass one frame through the fault stage.  [deliver] is called zero, one
    or two times — immediately, or up to [reorder_delay] seconds later for
    held-back frames — possibly with a truncated or bit-flipped frame. *)

val pp_stats : Format.formatter -> stats -> unit
