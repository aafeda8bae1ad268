(** Per-flow traffic attribution without per-flow state: a bundle of
    {!Fbsr_util.Sketch} instances keyed on the sfl, fed by the engine's
    seal and receive paths.

    Four quantities are tracked — sealed datagrams, sealed payload bytes,
    receive-side drops, and degradation events (soft-state flow-key
    recoveries) — each in [O(slots)] space per engine regardless of how
    many distinct flows pass through.  Per-shard bundles merge exactly
    (see {!Fbsr_util.Sketch.merge}), so a sharded site reports the same
    canonical top-K attribution as a single engine would. *)

type t = {
  datagrams : Fbsr_util.Sketch.t;
  bytes : Fbsr_util.Sketch.t;
  drops : Fbsr_util.Sketch.t;
  degraded : Fbsr_util.Sketch.t;
}

val none : t
(** All four sketches disabled; the engine hot path pays one branch. *)

val create : unit -> t
(** Four {!Fbsr_util.Sketch}es at their default sizes. *)

val enabled : t -> bool

val merge : t list -> t
(** Quantity-wise {!Fbsr_util.Sketch.merge} across shards. *)

val to_json : t -> Fbsr_util.Json.t
(** ["fbsr-flowstats/1"]: one canonical sketch document per quantity
    ({!Fbsr_util.Sketch.to_json}, top 32). *)
