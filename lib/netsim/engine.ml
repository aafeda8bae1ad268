(* Discrete-event simulation engine with a virtual clock.

   Substitutes for the paper's real testbed: "time" here is simulated
   seconds, so link bandwidth, propagation delay and flow inter-arrival
   behaviour are exact and reproducible regardless of host machine speed. *)

type t = {
  mutable now : float;
  events : (unit -> unit) Fbsr_util.Pqueue.t;
  mutable stopped : bool;
}

let create () = { now = 0.0; events = Fbsr_util.Pqueue.create (); stopped = false }

let now t = t.now

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Fbsr_util.Pqueue.push t.events (t.now +. delay) f

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  Fbsr_util.Pqueue.push t.events time f

let stop t = t.stopped <- true

let run ?until t =
  t.stopped <- false;
  let limit = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if not t.stopped then
      match Fbsr_util.Pqueue.peek t.events with
      | None -> ()
      | Some (time, _) when time > limit -> t.now <- limit
      | Some _ ->
          (match Fbsr_util.Pqueue.pop t.events with
          | Some (time, f) ->
              t.now <- time;
              f ()
          | None -> ());
          loop ()
  in
  loop ()

let pending t = Fbsr_util.Pqueue.length t.events
