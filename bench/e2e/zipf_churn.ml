(* zipf-churn: four client hosts send to four server hosts over a
   Zipf(1.0) population of 100k five-tuple flows, open loop at 20k
   datagrams per simulated second, sizes from an imix of 7 x 64 B,
   4 x 576 B and 1 x 1460 B.  This is the workload for keying and the
   caches: TFKC/RFKC misses, flow-key derivation and FST churn at the
   default cache sizes, and first-contact key fetches across 16 host
   pairs during warm-up.  UDP gets no MSS fix, so the 1460-byte
   datagrams fragment under FBS's overhead; that is deliberate.  An op
   is one datagram: latency runs from the client handing it to UDP until
   the server's upcall has verified it. *)

open Fbsr_netsim
module Testbed = Fbsr_fbs_ip.Testbed

let flows = 100_000
let hosts_per_side = 4
let pairs = hosts_per_side * hosts_per_side
let sim_rate = 20_000.0 (* datagrams per simulated second *)

(* One simulated second: every host pair has made first contact and
   fetched its keys long before.  Each of a run's rounds pays it again
   (see Run.rounds), so it is kept to what the measured phase needs. *)
let warm = 20_000

(* Datagrams per wall second of measurement on a 2-core x86-64 machine. *)
let rate = 26_000.0

let sizes ~seconds ~scale =
  ( max 1 (int_of_float (float_of_int warm *. scale)),
    max Phase.nblocks (int_of_float (rate *. seconds *. scale)) )

let imix rng =
  match Fbsr_util.Rng.int rng 12 with n when n < 7 -> 64 | n when n < 11 -> 576 | _ -> 1460

let create ~seed ~traced (p : Phase.t) =
  let rng = Fbsr_util.Rng.create seed in
  let tb = Common.testbed () in
  let side prefix name =
    Array.init hosts_per_side (fun i ->
        (Testbed.add_host tb ~name:(Printf.sprintf "%s%d" name i)
           ~addr:(Printf.sprintf "%s.%d" prefix (i + 1))).Testbed.host)
  in
  let clients = side "10.0.1" "client" and servers = side "10.0.2" "server" in
  let medium = Testbed.medium tb and engine = Testbed.engine tb in
  if traced then begin
    Array.iter (Common.time_rx medium Probe.rx_src) clients;
    Array.iter (Common.time_rx medium Probe.rx_dst) servers;
    Common.time_key_server tb
  end;
  let total = p.Phase.warm + p.Phase.ops in
  (* The generator's draws happen here, before any datagram is sent: the
     program only ever sees the generated datagrams. *)
  let zipf = Fbsr_traffic.Zipf.create ~n:flows (Fbsr_util.Rng.split rng) in
  let ranks = Array.init total (fun _ -> Fbsr_traffic.Zipf.sample zipf) in
  let lens = Array.init total (fun _ -> imix rng) in
  let src_base = Fbsr_util.Rng.int rng 60000 and dst_base = Fbsr_util.Rng.int rng 60000 in
  let pool = Common.pool rng 8191 in
  let content_offset i = i * 97 in
  (* Rank r lives on host pair r mod 16; its index within the pair picks
     a source port unique to the pair (7919 is prime to 60000). *)
  let client_of r = r mod hosts_per_side
  and server_of r = r / hosts_per_side mod hosts_per_side
  and src_port r = 1024 + (((r / pairs * 7919) + src_base) mod 60000)
  and dst_port r = 1024 + (((r / pairs mod 97 * 613) + dst_base) mod 60000) in
  let sent_ns = Array.make total 0 in
  let delivered = Bytes.make total '\000' in
  let ndelivered = ref 0 and bad = ref 0 and sent = ref 0 in
  let send i =
    let r = ranks.(i) and len = lens.(i) in
    let b = Bytes.create len in
    Bytes.set_int64_be b 0 (Int64.of_int i);
    Bytes.blit_string pool.Common.bytes (content_offset i mod pool.Common.len) b 8 (len - 8);
    Probe.report_op (i + 1);
    sent_ns.(i) <- Probe.now_ns ();
    incr sent;
    Probe.call Probe.tx
      (Udp_stack.send clients.(client_of r) ~src_port:(src_port r)
         ~dst:(Host.addr servers.(server_of r)) ~dst_port:(dst_port r))
      (Bytes.unsafe_to_string b)
  in
  let rec generate i () =
    if i < total then begin
      send i;
      Engine.schedule_at engine ~time:(float_of_int (i + 1) /. sim_rate) (generate (i + 1))
    end
  in
  Engine.schedule_at engine ~time:0.0 (generate 0);
  let receive server ~dst_port:dport ~src ~src_port:sport data =
    let len = String.length data in
    let i = if len >= 8 then Int64.to_int (String.get_int64_be data 0) else -1 in
    if i < 0 || i >= !sent || Bytes.get delivered i <> '\000' then incr bad
    else begin
      let r = ranks.(i) in
      Probe.report_op (i + 1);
      if
        len = lens.(i)
        && server_of r = server
        && Addr.equal src (Host.addr clients.(client_of r))
        && sport = src_port r && dport = dst_port r
        && Common.matches pool (content_offset i) data 8 (len - 8)
      then begin
        Bytes.set delivered i '\001';
        incr ndelivered;
        Phase.complete p ~ops:1 ~bytes:len
          ~lat_ns:(Probe.now_ns () - sent_ns.(i))
          ~sim_lat_s:(Testbed.now tb -. (float_of_int i /. sim_rate))
      end
      else incr bad
    end
  in
  Array.iteri
    (fun s host ->
      Udp_stack.listen_default host (fun ~dst_port ~src ~src_port data ->
          Probe.call Probe.app (receive s ~dst_port ~src ~src_port) data))
    servers;
  p.Phase.on_warm <- (fun () -> Engine.stop engine);
  let hosts = Array.to_list clients @ Array.to_list servers in
  let registry = Testbed.metrics tb in
  {
    Run.warm_up = (fun () -> Testbed.run tb);
    measure = (fun () -> Testbed.run tb);
    verify =
      (fun () ->
        {
          Run.attempted = !sent;
          delivered = !ndelivered;
          counted = Common.counted_failures ~registry hosts medium;
          violations =
            (if !bad > 0 then
               [
                 Printf.sprintf "%d datagrams differ from their seeded content or arrived twice"
                   !bad;
               ]
             else [])
            @ (if !sent <> total then [ "the generator stopped early" ] else [])
            @ if Engine.pending engine > 0 then [ "events left in the queue" ] else [];
        });
    layers = (fun () -> Common.fbs_layers registry @ Common.netsim_layers hosts medium);
    counters =
      (fun () ->
        Common.registry_counters registry
        @ Common.netsim_counters hosts medium);
  }

let workload = { Run.name = "zipf-churn"; sizes; create }
