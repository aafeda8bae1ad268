(* The benchmark's metrics: name, unit and which direction is better.
   BENCHMARK.json lists the same tables; [compare] checks that they
   agree. *)

type t = { name : string; unit_ : string; higher_better : bool }

let m ?(higher = false) name unit_ = { name; unit_; higher_better = higher }

(* What a user of the stack sees, from the untraced run.  The p99 of the
   same latency is measured too, but not gated: it is the per-layer
   e2e.lat_p99_us. *)
let e2e =
  [
    m ~higher:true "goodput_MBps" "MB/s";
    m ~higher:true "ops_per_s" "1/s";
    m "lat_p50_us" "us";
    m "setup_s" "s";
    m "heap_peak_MB" "MB";
  ]

(* One layer each, from the traced run.  A layer a workload does not
   exercise reads 0 there. *)
let per_layer =
  [
    m "e2e.lat_p99_us" "us";
    m "tx.ns_per_op" "ns";
    m "tx.p99_ns" "ns";
    m "rx.src.ns_per_frame" "ns";
    m "rx.dst.ns_per_frame" "ns";
    m "rx.p99_ns" "ns";
    m "rx.frames" "count";
    m "ca.ns_per_fetch" "ns";
    m "app.ns_per_op" "ns";
    m "loop.ns_per_op" "ns";
    m "sim.lat_p99_ms" "ms";
    m "fbs_ip.mkd.fetches" "count";
    m "fbs_ip.mkd.retransmissions" "count";
    m "fbs_ip.mkd.failures" "count";
    m "fbs.keying.master_key_computations" "count";
    m "fbs.keying.certificate_fetches" "count";
    m "fbs_ip.stack.suspended_out" "count";
    m "fbs_ip.stack.suspended_in" "count";
    m "fbs_ip.stack.resumed" "count";
    m "fbs_ip.stack.dropped_error" "count";
    m ~higher:true "fbs.cache.tfkc.hit_ratio" "ratio";
    m ~higher:true "fbs.cache.rfkc.hit_ratio" "ratio";
    m "fbs.cache.tfkc.misses.conflict" "count";
    m "fbs.cache.tfkc.misses.capacity" "count";
    m "fbs.cache.rfkc.misses.conflict" "count";
    m "fbs.cache.rfkc.misses.capacity" "count";
    m "fbs.cache.mkc.misses.total" "count";
    m "fbs.engine.flow_key_computations" "count";
    m ~higher:true "fbs.engine.keysched.hit_ratio" "ratio";
    m ~higher:true "fbs.engine.macmid.hit_ratio" "ratio";
    m "fbs.fam.flows_started" "count";
    m "fbs.fam.expired" "count";
    m "fbs.engine.sends" "count";
    m "fbs.engine.receives" "count";
    m ~higher:true "fbs.engine.accepted" "count";
    m "fbs.engine.drops.total" "count";
    m ~higher:true "fbs.engine.rxbatch.deferred" "count";
    m "fbs.engine.rxbatch.flushes" "count";
    m "datapath.allocs_per_datagram" "count";
    m "datapath.bytes_copied_per_datagram" "B";
    m "sharded.send_all_ns_per_dgram" "ns";
    m "sharded.receive_all_ns_per_dgram" "ns";
    m "sharded.batch_p99_us" "us";
    m "sharded.imbalance" "ratio";
    m "zipf.draw_ns_per_dgram" "ns";
    m "host.packets_out" "count";
    m "host.fragments_out" "count";
    m "host.reassembled" "count";
    m "medium.frames" "count";
    m "medium.bytes" "B";
    m "tcp.retransmits" "count";
    m "tcp.segments_out" "count";
    m "gc.minor_words_per_op" "words";
    m "gc.promoted_words_per_op" "words";
    m "gc.major_per_kop" "count";
    m "gc.live_MB" "MB";
    m "trace.overhead_pct" "%";
    m "trace.unattributed_pct" "%";
  ]


let find name = List.find_opt (fun x -> x.name = name) (e2e @ per_layer)
