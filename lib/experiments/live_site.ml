(* A live campus site: the synthetic workload driven through REAL FBS
   stacks rather than through the offline flow simulator.

   This is the strongest validation in the harness: every datagram of the
   trace is sent by an actual simulated host through actual FBSSend()
   processing — DES, MD5, caches, MKD fetches — received and verified by
   the actual FBSReceive() path.  The cache statistics that fall out are
   the *measured* analogue of Figure 11, which lets us check the offline
   cache simulator's predictions against the real protocol.  (The offline
   simulator exists because the paper's own methodology was trace-driven
   simulation; the live site is what the paper could not easily do at
   scale on one Pentium.) *)

open Fbsr_netsim
open Fbsr_fbs_ip

type result = {
  datagrams_sent : int;
  datagrams_delivered : int;
  hosts : int;
  flows_started : int;
  mkd_fetches : int;
  master_key_computations : int;
  flow_key_computations : int;
  macs : int;
  tfkc_hit_rate : float;
  rfkc_hit_rate : float;
  replay_rejections : int;
  mac_failures : int;
}

let run ?(seed = 7) ?(duration = 1800.0) ?(desktops = 6) ?(tfkc_sets = 64)
    ?(rfkc_sets = 64) ?faults () =
  let scenario = Fbsr_traffic.Scenario.campus_lan ~seed ~duration ~desktops () in
  let config = Stack.default_config ~tfkc_sets ~rfkc_sets () in
  let tb = Testbed.create ~config ~bandwidth_bps:100_000_000.0 ?faults () in
  (* 100 Mb/s so the wire never throttles the trace's timing. *)
  let nodes = Hashtbl.create 32 in
  List.iter
    (fun addr ->
      let node = Testbed.add_host tb ~name:addr ~addr in
      (* Accept every datagram on any port: the trace's ports are data,
         not services we implement. *)
      Hashtbl.replace nodes addr node)
    scenario.Fbsr_traffic.Scenario.hosts;
  let delivered = ref 0 in
  Hashtbl.iter
    (fun _ (node : Testbed.node) ->
      Udp_stack.listen_default node.Testbed.host (fun ~dst_port:_ ~src:_ ~src_port:_ _ ->
          incr delivered))
    nodes;
  let sent = ref 0 in
  List.iter
    (fun (r : Fbsr_traffic.Record.t) ->
      match (Hashtbl.find_opt nodes r.src, Hashtbl.find_opt nodes r.dst) with
      | Some src_node, Some dst_node ->
          incr sent;
          Engine.schedule (Testbed.engine tb) ~delay:r.time (fun () ->
              Udp_stack.send src_node.Testbed.host ~src_port:r.src_port
                ~dst:(Host.addr dst_node.Testbed.host) ~dst_port:r.dst_port
                (String.make (max 1 (min r.size 1400)) 'd'))
      | _ -> ())
    scenario.Fbsr_traffic.Scenario.records;
  Testbed.run tb;
  (* Site-wide totals: the run owns a fresh registry on which every node
     registered its components at the bare names, summed across hosts. *)
  let get = Fbsr_util.Metrics.get (Testbed.metrics tb) in
  let hit_rate cache =
    let hits = get ("fbs.cache." ^ cache ^ ".hits") in
    let accesses = hits + get ("fbs.cache." ^ cache ^ ".misses.total") in
    if accesses = 0 then 1.0 else float_of_int hits /. float_of_int accesses
  in
  {
    datagrams_sent = !sent;
    datagrams_delivered = !delivered;
    hosts = Hashtbl.length nodes;
    flows_started = get "fbs.fam.flows_started";
    mkd_fetches = get "fbs_ip.mkd.fetches";
    master_key_computations = get "fbs.keying.master_key_computations";
    flow_key_computations = get "fbs.engine.flow_key_computations";
    macs = get "fbs.engine.macs_computed";
    tfkc_hit_rate = hit_rate "tfkc";
    rfkc_hit_rate = hit_rate "rfkc";
    replay_rejections =
      get (Fbsr_fbs.Engine.drop_metric Fbsr_fbs.Engine.Stale)
      + get (Fbsr_fbs.Engine.drop_metric Fbsr_fbs.Engine.Duplicate);
    mac_failures = get (Fbsr_fbs.Engine.drop_metric Fbsr_fbs.Engine.Mac);
  }
