(* Domain-sharded datapath.  See sharded.mli for the model.

   The dispatch loop is deliberately bulk-synchronous: classify and
   partition a whole batch on the calling domain, fan the per-shard
   buckets out with Domain_shim.parallel_run, join, return results in
   input order.  No cross-domain queues, no locks — each shard engine is
   touched by exactly one domain per batch, and the dispatcher-side
   state (FAM, confounder LCG) is touched only between fan-outs. *)

type t = {
  nshards : int;
  engines : Engine.t array;
  fam : Fam.t;
  confounders : Fbsr_util.Lcg.t;
  (* Telemetry tick: runs on the dispatching domain after each batch
     joins, when every shard's state is quiescent and safe to snapshot. *)
  mutable on_tick : now:float -> unit;
}

let create ?nshards ?(confounder_seed = 0x5eed) ~engine ~fam () =
  let n =
    match nshards with
    | None -> Fbsr_util.Domain_shim.recommended_domain_count ()
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Sharded.create: nshards %d < 1" n)
  in
  {
    nshards = n;
    engines = Array.init n engine;
    fam;
    confounders = Fbsr_util.Lcg.create confounder_seed;
    on_tick = (fun ~now:_ -> ());
  }

let nshards t = t.nshards
let engine t i = t.engines.(i)
let engines t = Array.copy t.engines
let fam t = t.fam
let set_tick_hook t f = t.on_tick <- f

let flowstats t =
  Flowstats.merge (Array.to_list (Array.map Engine.flowstats t.engines))

let shard_of_crc t crc = crc land max_int mod t.nshards
let shard_of_sfl t sfl = shard_of_crc t (Fbsr_util.Crc32.update_int64 0 (Sfl.to_int64 sfl))

(* Partition job indices 0..n-1 into per-shard buckets, preserving input
   order within each bucket (per-flow order depends on it). *)
let buckets_of t shard_of n =
  let counts = Array.make t.nshards 0 in
  for i = 0 to n - 1 do
    let s = shard_of i in
    counts.(s) <- counts.(s) + 1
  done;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make t.nshards 0 in
  for i = 0 to n - 1 do
    let s = shard_of i in
    buckets.(s).(fill.(s)) <- i;
    fill.(s) <- fill.(s) + 1
  done;
  buckets

(* Fan non-empty buckets out to domains.  Each thunk writes disjoint
   slots of [results]; the joins in parallel_run publish them back. *)
let run_buckets t buckets per_index =
  let thunks =
    Array.of_list
      (List.filter_map
         (fun s ->
           if Array.length buckets.(s) = 0 then None
           else Some (fun () -> Array.iter (per_index s) buckets.(s)))
         (List.init t.nshards Fun.id))
  in
  ignore (Fbsr_util.Domain_shim.parallel_run thunks : unit array)

let settled what = function
  | Some r -> r
  | None -> invalid_arg ("Sharded." ^ what ^ ": keying resolver deferred")

let send_all t ~now ~secret jobs =
  let n = Array.length jobs in
  (* Classification and confounder draws happen here, in input order, on
     the dispatching domain — the wire bytes cannot depend on the shard
     count. *)
  let sfls = Array.make n (Sfl.of_int64 0L) in
  let confs = Array.make n 0 in
  for i = 0 to n - 1 do
    let attrs, _ = jobs.(i) in
    let sfl, _decision = Fam.classify t.fam ~now attrs in
    sfls.(i) <- sfl;
    confs.(i) <- Fbsr_util.Lcg.next_u32 t.confounders
  done;
  let buckets = buckets_of t (fun i -> shard_of_sfl t sfls.(i)) n in
  let results = Array.make n None in
  (* Seals run inline.  A per-shard seal batch would buy the two-chain
     kernel, but a parked datagram's [engine.seal] span would then cover
     its wait for a partner (one seal, or the rest of the bucket for an
     odd one out).  The bench's gated 4-shard seal p99 rose 2.1 -> 17.8 ms
     with a 63-deep queue; a batch goes in once deferred spans report
     their CPU time apart from that wait. *)
  run_buckets t buckets (fun s i ->
      let attrs, payload = jobs.(i) in
      Engine.send_classified ~confounder:confs.(i) t.engines.(s) ~now
        ~sfl:sfls.(i) ~src:attrs.Fam.src ~dst:attrs.Fam.dst ~secret ~payload
        (fun r -> results.(i) <- Some r));
  t.on_tick ~now;
  Array.map (settled "send_all") results

let receive_all t ~now ~src wires =
  let n = Array.length wires in
  let shard_of i =
    let w = wires.(i) in
    (* The sfl is the first 8 bytes of every well-formed header; anything
       shorter goes to shard 0, whose decode rejects it normally. *)
    if String.length w < 8 then 0
    else shard_of_crc t (Fbsr_util.Crc32.update_int64 0 (String.get_int64_be w 0))
  in
  let buckets = buckets_of t shard_of n in
  let results = Array.make n None in
  run_buckets t buckets (fun s i ->
      Engine.receive t.engines.(s) ~now ~src ~wire:wires.(i)
        (fun r -> results.(i) <- Some r));
  t.on_tick ~now;
  Array.map (settled "receive_all") results

let register_metrics t m =
  Array.iteri
    (fun i e ->
      Engine.register_metrics e m;
      Engine.register_metrics e (Fbsr_util.Metrics.sub m (Printf.sprintf "shard.%d" i)))
    t.engines
