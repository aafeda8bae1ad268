(* Pieces the simulated workloads share: seeded payload pools, payload
   checks, timing stations on the medium, and reading the layers' public
   counters. *)

open Fbsr_netsim
module Metrics = Fbsr_util.Metrics
module Testbed = Fbsr_fbs_ip.Testbed

(* Every run builds the same site: Testbed's default seed, so the same CA
   key, host keys and medium.  The run's seed drives only the traffic
   (ports, payloads, draws).  The CA's RSA-768 prime search dominates a
   set-up and its time depends on the testbed seed (0.09 to 0.78 s over
   seeds 1-20 on the reference machine), so a seeded site would make
   setup_s measure which seeds a set of runs happened to draw.

   The segment runs at 1 Gb/s: at the 10 Mb/s default the wire saturates
   near 850 MTU frames per simulated second, and simulated latency would
   then measure wire queueing, not protocol. *)
let testbed () = Testbed.create ~bandwidth_bps:1e9 ()

(* A seeded random pool of [n] bytes, stored twice over so any slice of
   up to [n] bytes starting inside the first copy is contiguous. *)
type pool = { len : int; bytes : string }

let pool rng n =
  let b = Fbsr_util.Rng.bytes rng n in
  { len = n; bytes = b ^ b }

let slice pool off n = String.sub pool.bytes (off mod pool.len) n

(* [matches pool off s soff n]: bytes [soff, soff+n) of [s] equal the
   pool's bytes starting at [off] — compared eight at a time, without
   allocating. *)
let matches pool off s soff n =
  let p = pool.bytes and poff = off mod pool.len in
  n <= pool.len
  && soff >= 0
  && soff + n <= String.length s
  &&
  let rec words i =
    if i + 8 > n then tail i
    else
      Int64.equal (String.get_int64_ne p (poff + i)) (String.get_int64_ne s (soff + i))
      && words (i + 8)
  and tail i = i >= n || (p.[poff + i] = s.[soff + i] && tail (i + 1)) in
  words 0

(* Route a host's frames from the medium through a timing wrapper: the
   medium delivers to the most recently attached station for an
   address. *)
let time_rx medium boundary host =
  Medium.attach medium ~addr:(Host.addr host) ~deliver:(fun raw ->
      Probe.rx boundary (Host.ip_input host) raw)

(* Testbed does not hand out its key-server host, so a traced run stands
   up an identical key server (same authority, same port) at the same
   address; the medium then delivers to it, through the timing wrapper. *)
let time_key_server tb =
  let engine = Testbed.engine tb and medium = Testbed.medium tb in
  let host = Host.create ~name:"keyserver" ~addr:(Testbed.ca_addr tb) engine in
  Host.attach host medium;
  Udp_stack.install host;
  ignore
    (Fbsr_fbs_ip.Ca_server.install ~authority:(Testbed.authority tb) host
      : Fbsr_fbs_ip.Ca_server.t);
  time_rx medium Probe.ca host

(* The slot a five-tuple takes in its sending host's flow state table:
   direct-mapped, so two live flows that share a slot evict each other on
   every datagram (the paper's footnote 11).  The few-flow workloads draw
   their ports from the seed but reject draws that would share a slot, so
   every seed measures the same warm flows; churn is zipf-churn's job. *)
let fst_slot ~protocol src src_port dst dst_port =
  Fbsr_fbs.Policy_five_tuple.tuple_hash ~protocol ~src:(Addr.to_string src) ~src_port
    ~dst:(Addr.to_string dst) ~dst_port
  mod (Fbsr_fbs_ip.Stack.default_config ()).Fbsr_fbs_ip.Stack.fst_size

let get m name = if Metrics.mem m name then Metrics.get m name else 0

let ratio hits misses =
  if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

(* The keying, cache, FAM and datapath counters the site registry sums
   across hosts (all zero on a plain-IP site). *)
let fbs_layers m =
  let g = get m in
  let f name = float_of_int (g name) in
  let per_datagram name =
    let d = g "fbs.engine.sends" + g "fbs.engine.receives" in
    if d = 0 then 0.0 else f name /. float_of_int d
  in
  [
    ("fbs_ip.mkd.fetches", f "fbs_ip.mkd.fetches");
    ("fbs_ip.mkd.retransmissions", f "fbs_ip.mkd.retransmissions");
    ("fbs_ip.mkd.failures", f "fbs_ip.mkd.failures");
    ("fbs.keying.master_key_computations", f "fbs.keying.master_key_computations");
    ("fbs.keying.certificate_fetches", f "fbs.keying.certificate_fetches");
    ("fbs_ip.stack.suspended_out", f "fbs_ip.stack.suspended_out");
    ("fbs_ip.stack.suspended_in", f "fbs_ip.stack.suspended_in");
    ("fbs_ip.stack.resumed", f "fbs_ip.stack.resumed");
    ("fbs_ip.stack.dropped_error", f "fbs_ip.stack.dropped_error");
    ( "fbs.cache.tfkc.hit_ratio",
      ratio (g "fbs.cache.tfkc.hits") (g "fbs.cache.tfkc.misses.total") );
    ( "fbs.cache.rfkc.hit_ratio",
      ratio (g "fbs.cache.rfkc.hits") (g "fbs.cache.rfkc.misses.total") );
    ("fbs.cache.tfkc.misses.conflict", f "fbs.cache.tfkc.misses.conflict");
    ("fbs.cache.tfkc.misses.capacity", f "fbs.cache.tfkc.misses.capacity");
    ("fbs.cache.rfkc.misses.conflict", f "fbs.cache.rfkc.misses.conflict");
    ("fbs.cache.rfkc.misses.capacity", f "fbs.cache.rfkc.misses.capacity");
    ("fbs.cache.mkc.misses.total", f "fbs.cache.mkc.misses.total");
    ("fbs.engine.flow_key_computations", f "fbs.engine.flow_key_computations");
    ( "fbs.engine.keysched.hit_ratio",
      ratio (g "fbs.engine.keysched.hits") (g "fbs.engine.keysched.misses") );
    ( "fbs.engine.macmid.hit_ratio",
      ratio (g "fbs.engine.macmid.hits") (g "fbs.engine.macmid.misses") );
    ("fbs.fam.flows_started", f "fbs.fam.flows_started");
    ("fbs.fam.expired", f "fbs.fam.expired");
    ("fbs.engine.sends", f "fbs.engine.sends");
    ("fbs.engine.receives", f "fbs.engine.receives");
    ("fbs.engine.accepted", f "fbs.engine.accepted");
    ("fbs.engine.drops.total", f "fbs.engine.drops.total");
    ("fbs.engine.rxbatch.deferred", f "fbs.engine.rxbatch.deferred");
    ("fbs.engine.rxbatch.flushes", f "fbs.engine.rxbatch.flushes");
    ("datapath.allocs_per_datagram", per_datagram "fbs.engine.datapath.allocs");
    ("datapath.bytes_copied_per_datagram", per_datagram "fbs.engine.datapath.bytes_copied");
  ]

(* Integer counters of a registry: exact, and identical between two runs
   of one seed. *)
let registry_counters m =
  List.filter_map
    (function name, Metrics.Int n -> Some (name, n) | _ -> None)
    (Metrics.snapshot m)

let sum_hosts hosts f = List.fold_left (fun acc h -> acc + f (Host.stats h)) 0 hosts

let netsim_layers hosts medium =
  let ms = Medium.stats medium in
  [
    ("host.packets_out", float_of_int (sum_hosts hosts (fun s -> s.Host.packets_out)));
    ("host.fragments_out", float_of_int (sum_hosts hosts (fun s -> s.Host.fragments_out)));
    ("host.reassembled", float_of_int (sum_hosts hosts (fun s -> s.Host.reassembled)));
    ("medium.frames", float_of_int ms.Medium.frames);
    ("medium.bytes", float_of_int ms.Medium.bytes);
  ]

let netsim_counters hosts medium =
  let ms = Medium.stats medium in
  List.concat_map
    (fun h ->
      let s = Host.stats h and p = "netsim." ^ Host.name h ^ "." in
      [
        (p ^ "packets_out", s.Host.packets_out);
        (p ^ "packets_in", s.Host.packets_in);
        (p ^ "bytes_out", s.Host.bytes_out);
        (p ^ "fragments_out", s.Host.fragments_out);
        (p ^ "reassembled", s.Host.reassembled);
        (p ^ "drops_hook", s.Host.drops_hook);
      ])
    hosts
  @ [
      ("netsim.medium.frames", ms.Medium.frames);
      ("netsim.medium.dropped", ms.Medium.dropped);
      ("netsim.medium.bytes", ms.Medium.bytes);
    ]

(* Datagrams some layer dropped and counted: malformed, undeliverable or
   refused frames at IP and UDP, FBS send and receive errors (the stack
   counts each once; the engine's drop counters see the receive half
   again), and frames the medium lost.  A lossless workload expects zero;
   together with the verified deliveries they must account for every
   offered datagram. *)
let counted_failures ~registry hosts medium =
  sum_hosts hosts (fun s ->
      s.Host.drops_bad + s.Host.drops_no_proto + s.Host.drops_not_mine + s.Host.send_errors)
  + List.fold_left
      (fun acc h ->
        let bad, no_port = Udp_stack.stats h in
        acc + bad + no_port)
      0 hosts
  + get registry "fbs_ip.stack.dropped_error"
  + (Medium.stats medium).Medium.dropped
