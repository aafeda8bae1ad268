(* Heavy-hitter attribution bundle.  Pure aggregation of Sketch — the
   engine decides what counts as a datagram/drop/degradation event. *)

open Fbsr_util

type t = {
  datagrams : Sketch.t;
  bytes : Sketch.t;
  drops : Sketch.t;
  degraded : Sketch.t;
}

let none =
  {
    datagrams = Sketch.none;
    bytes = Sketch.none;
    drops = Sketch.none;
    degraded = Sketch.none;
  }

let create () =
  {
    datagrams = Sketch.create ();
    bytes = Sketch.create ();
    drops = Sketch.create ();
    degraded = Sketch.create ();
  }

let enabled t = Sketch.enabled t.datagrams

let merge ts =
  match ts with
  | [] -> invalid_arg "Flowstats.merge: empty list"
  | _ ->
      {
        datagrams = Sketch.merge (List.map (fun t -> t.datagrams) ts);
        bytes = Sketch.merge (List.map (fun t -> t.bytes) ts);
        drops = Sketch.merge (List.map (fun t -> t.drops) ts);
        degraded = Sketch.merge (List.map (fun t -> t.degraded) ts);
      }

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "fbsr-flowstats/1");
      ("datagrams", Sketch.to_json t.datagrams);
      ("bytes", Sketch.to_json t.bytes);
      ("drops", Sketch.to_json t.drops);
      ("degraded", Sketch.to_json t.degraded);
    ]
