(* The benchmark's workloads.  [gated] are the ones BENCHMARK.json lists,
   in its order, and the ones a run without --workload runs.  ttcp-plain
   and sharded-gw run only when named: on the reference machine their
   run-to-run spread is wider than the largest bound BENCHMARK.json may
   hold (see README.md). *)

let gated = [ Ttcp.fbs; Rpc.workload; Zipf_churn.workload ]
let all = gated @ [ Ttcp.plain; Sharded_gw.workload ]
let find name = List.find_opt (fun (w : Run.workload) -> w.name = name) all
