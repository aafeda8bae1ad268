(* Fault-injection link layer.

   The paper's central robustness claim (Sections 5.3, 6) is that FBS is
   built entirely from soft state over an *insecure, unreliable* datagram
   substrate: any cache entry may be dropped at any time and the protocol
   merely recomputes, and any datagram may be lost, duplicated, reordered
   or tampered with and the protocol merely rejects or recovers.  The
   perfect in-memory medium never exercises that claim, so every host's
   egress can be routed through a [Link.t]: a deterministic (seeded-RNG)
   fault stage that drops, duplicates, reorders, truncates, and bit-flips
   frames, with per-link statistics.

   Faults are applied in a fixed order per frame — drop, then mutation
   (truncate / bit-flip), then scheduling (reorder hold-back, duplicate) —
   so a single uniform draw per fault keeps runs reproducible from one
   integer seed regardless of which faults are enabled.

   Reordering uses a bounded delay queue: a reordered frame is held back a
   uniform time in (0, reorder_delay] while later frames overtake it.  The
   bound means no frame is delayed indefinitely, so "eventual delivery"
   remains meaningful. *)

type profile = {
  drop : float;  (* P(frame silently discarded) *)
  duplicate : float;  (* P(frame delivered twice) *)
  reorder : float;  (* P(frame held back so later frames overtake it) *)
  reorder_delay : float;  (* bound (seconds) on the hold-back *)
  truncate : float;  (* P(frame cut to a random proper prefix) *)
  corrupt : float;  (* P(one random bit flipped) *)
}

let perfect =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_delay = 0.01;
    truncate = 0.0;
    corrupt = 0.0;
  }

let validate_profile p =
  let prob name v =
    if v < 0.0 || v > 1.0 then
      invalid_arg (Printf.sprintf "Link: %s probability %g not in [0,1]" name v)
  in
  prob "drop" p.drop;
  prob "duplicate" p.duplicate;
  prob "reorder" p.reorder;
  prob "truncate" p.truncate;
  prob "corrupt" p.corrupt;
  if p.reorder_delay < 0.0 then invalid_arg "Link: negative reorder_delay"

type stats = {
  mutable offered : int;  (* frames handed to the link *)
  mutable delivered : int;  (* deliveries performed (duplicates included) *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable truncated : int;
  mutable corrupted : int;
}

let new_stats () =
  {
    offered = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    truncated = 0;
    corrupted = 0;
  }

type t = {
  engine : Engine.t;
  rng : Fbsr_util.Rng.t;
  mutable profile : profile;
  stats : stats;
  mutable spans : Fbsr_util.Span.t;
}

let create ?(seed = 0x7a11) ?(profile = perfect)
    ?(spans = Fbsr_util.Span.none) engine =
  validate_profile profile;
  {
    engine;
    rng = Fbsr_util.Rng.create seed;
    profile;
    stats = new_stats ();
    spans;
  }

let set_spans t spans = t.spans <- spans
let profile t = t.profile

let set_profile t p =
  validate_profile p;
  t.profile <- p

let stats t = t.stats

(* Registry names relative to the caller's scope (e.g. "netsim.link").
   Registering every link of a medium under one scope sums them into the
   site-wide fault totals. *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  let s = t.stats in
  register_probe m "offered" (fun () -> s.offered);
  register_probe m "delivered" (fun () -> s.delivered);
  register_probe m "dropped" (fun () -> s.dropped);
  register_probe m "duplicated" (fun () -> s.duplicated);
  register_probe m "reordered" (fun () -> s.reordered);
  register_probe m "truncated" (fun () -> s.truncated);
  register_probe m "corrupted" (fun () -> s.corrupted)

let hit t p = p > 0.0 && Fbsr_util.Rng.uniform t.rng < p

(* Fault mutations operate on borrowed slices of the offered frame: a
   truncation is just a narrower view (no copy), and only a bit-flip
   materializes a mutated buffer (one blit).  The RNG draw order is
   identical to the original string-based stages, so runs stay
   reproducible from the same seed. *)

(* Cut the frame to a uniformly random proper prefix (possibly empty). *)
let truncate_frame t (frame : Fbsr_util.Slice.t) =
  t.stats.truncated <- t.stats.truncated + 1;
  Fbsr_util.Slice.sub frame ~pos:0
    ~len:(Fbsr_util.Rng.int t.rng (Fbsr_util.Slice.length frame))

(* Flip one uniformly random bit. *)
let corrupt_frame t (frame : Fbsr_util.Slice.t) =
  t.stats.corrupted <- t.stats.corrupted + 1;
  let len = Fbsr_util.Slice.length frame in
  let b = Bytes.create len in
  Fbsr_util.Slice.blit frame b 0;
  let bit = Fbsr_util.Rng.int t.rng (8 * len) in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Fbsr_util.Slice.of_bytes_unsafe b

let transmit t ~deliver raw =
  t.stats.offered <- t.stats.offered + 1;
  (* Sidecar capture: the frame carries no trace bytes, so the ambient
     trace id is read at transmit time and restored around each delivery
     callback — this is how receive-side spans join the sender's trace.
     An id of 0 (no trace in scope, or tracing disabled) records nothing.
     The RNG draw order below is unchanged from the untraced code, so
     runs stay reproducible from the same seed with tracing on or off. *)
  let tid =
    if Fbsr_util.Span.enabled t.spans then Fbsr_util.Span.current () else 0L
  in
  let tm = if Int64.equal tid 0L then None else Some (Fbsr_util.Span.start t.spans) in
  let p = t.profile in
  if hit t p.drop then begin
    t.stats.dropped <- t.stats.dropped + 1;
    match tm with
    | Some stm ->
        (* Terminal: the datagram's life ends on this link. *)
        Fbsr_util.Span.finish t.spans stm ~id:tid
          ~outcome:(Fbsr_util.Span.drop_outcome "link")
          "netsim.link"
          ~detail:[ ("verdict", Fbsr_util.Json.String "drop") ]
    | None -> ()
  end
  else begin
    let frame = Fbsr_util.Slice.of_string raw in
    let truncated = Fbsr_util.Slice.length frame > 0 && hit t p.truncate in
    let frame = if truncated then truncate_frame t frame else frame in
    let corrupted = Fbsr_util.Slice.length frame > 0 && hit t p.corrupt in
    let frame = if corrupted then corrupt_frame t frame else frame in
    (* Materialized once per offered frame: a pristine frame round-trips
       through [of_string]/[to_string] without any copy at all. *)
    let raw = Fbsr_util.Slice.to_string frame in
    let record_transit stm ~reordered ~dup =
      Fbsr_util.Span.finish t.spans stm ~id:tid "netsim.link"
        ~detail:
          [
            ("truncated", Fbsr_util.Json.Bool truncated);
            ("corrupted", Fbsr_util.Json.Bool corrupted);
            ("reordered", Fbsr_util.Json.Bool reordered);
            ("duplicate", Fbsr_util.Json.Bool dup);
          ]
    in
    let deliver_traced () =
      if Int64.equal tid 0L then deliver raw
      else Fbsr_util.Span.with_current tid (fun () -> deliver raw)
    in
    let send_one ~dup =
      t.stats.delivered <- t.stats.delivered + 1;
      if hit t p.reorder && p.reorder_delay > 0.0 then begin
        t.stats.reordered <- t.stats.reordered + 1;
        let delay = Fbsr_util.Rng.float t.rng p.reorder_delay in
        Engine.schedule t.engine ~delay (fun () ->
            (* One span per delivery (a duplicated frame records two,
               sharing the begin timestamp); a held-back frame's span ends
               at its delayed delivery, making the hold-back visible. *)
            (match tm with
            | Some stm -> record_transit stm ~reordered:true ~dup
            | None -> ());
            deliver_traced ())
      end
      else begin
        (match tm with
        | Some stm -> record_transit stm ~reordered:false ~dup
        | None -> ());
        deliver_traced ()
      end
    in
    send_one ~dup:false;
    if hit t p.duplicate then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      send_one ~dup:true
    end
  end

let pp_stats ppf s =
  Fmt.pf ppf
    "offered=%d delivered=%d dropped=%d duplicated=%d reordered=%d truncated=%d \
     corrupted=%d"
    s.offered s.delivered s.dropped s.duplicated s.reordered s.truncated s.corrupted
