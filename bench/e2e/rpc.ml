(* rpc-64: sixteen closed-loop clients on one FBS host, each doing
   64-byte UDP echoes against a server on another FBS host — sixteen
   warm flows each way.  At the smallest size per-datagram work (FAM
   classify, header, cache probes, IPv4, the event loop) dominates and
   crypto is small.  An op is one request: latency runs from the client
   handing the request to UDP until its verified echo comes back. *)

open Fbsr_netsim
module Testbed = Fbsr_fbs_ip.Testbed

let clients = 16
let size = 64
let warm_per_client = 100

(* Requests per wall second of measurement on a 2-core x86-64 machine. *)
let rate = 50_000.0

let sizes ~seconds ~scale =
  let round n = max clients (n / clients * clients) in
  ( round (int_of_float (float_of_int (clients * warm_per_client) *. scale)),
    round (int_of_float (rate *. seconds *. scale)) )

type client = {
  id : int;
  port : int;
  offset : int;  (* where the client's requests start in the pool *)
  mutable issued : int;
  mutable completed : int;
  mutable sent_ns : int;
  mutable sent_sim : float;
  mutable bad : int;  (* requests or echoes that differ from the seeded bytes *)
}

(* Request [k] of a client: 64 bytes of the pool, a fresh window each time. *)
let request_offset c k = c.offset + (k * 61)

let create ~seed ~traced (p : Phase.t) =
  let rng = Fbsr_util.Rng.create seed in
  let tb = Common.testbed () in
  let client_host = (Testbed.add_host tb ~name:"client" ~addr:"10.0.0.1").Testbed.host in
  let server_host = (Testbed.add_host tb ~name:"server" ~addr:"10.0.0.2").Testbed.host in
  let medium = Testbed.medium tb and engine = Testbed.engine tb in
  if traced then begin
    Common.time_rx medium Probe.rx_src client_host;
    Common.time_rx medium Probe.rx_dst server_host;
    Common.time_key_server tb
  end;
  let pool = Common.pool rng 4093 in
  let server_port = 1024 + Fbsr_util.Rng.int rng 60000 in
  let client_addr = Host.addr client_host and server_addr = Host.addr server_host in
  let ports = Hashtbl.create clients in
  let slots = Hashtbl.create (2 * clients) in
  let rec fresh_port () =
    let port = 1024 + Fbsr_util.Rng.int rng 60000 in
    let request = `Client (Common.fst_slot ~protocol:17 client_addr port server_addr server_port)
    and echo = `Server (Common.fst_slot ~protocol:17 server_addr server_port client_addr port) in
    if Hashtbl.mem ports port || Hashtbl.mem slots request || Hashtbl.mem slots echo then
      fresh_port ()
    else begin
      Hashtbl.replace slots request ();
      Hashtbl.replace slots echo ();
      port
    end
  in
  let quota = ((p.Phase.warm + p.Phase.ops) / clients) + 2 in
  let cs =
    Array.init clients (fun id ->
        let port = fresh_port () in
        let c =
          {
            id;
            port;
            offset = Fbsr_util.Rng.int rng pool.Common.len;
            issued = 0;
            completed = 0;
            sent_ns = 0;
            sent_sim = 0.0;
            bad = 0;
          }
        in
        Hashtbl.replace ports port c;
        c)
  in
  let issue c =
    let k = c.issued in
    c.issued <- k + 1;
    Probe.report_op ((c.id * quota) + k + 1);
    let payload = Common.slice pool (request_offset c k) size in
    c.sent_sim <- Testbed.now tb;
    c.sent_ns <- Probe.now_ns ();
    Probe.call Probe.tx
      (Udp_stack.send client_host ~src_port:c.port ~dst:server_addr ~dst_port:server_port)
      payload
  in
  let echo ~src ~src_port data =
    match Hashtbl.find_opt ports src_port with
    | None -> ()
    | Some c ->
        Probe.report_op ((c.id * quota) + c.issued);
        if not (Common.matches pool (request_offset c (c.issued - 1)) data 0 size
                && String.length data = size) then c.bad <- c.bad + 1;
        Probe.call Probe.tx
          (Udp_stack.send server_host ~src_port:server_port ~dst:src ~dst_port:src_port)
          data
  in
  Udp_stack.listen server_host ~port:server_port (fun ~src ~src_port data ->
      Probe.call Probe.app (echo ~src ~src_port) data);
  let reply c ~src ~src_port data =
    let lat = Probe.now_ns () - c.sent_ns in
    Probe.report_op ((c.id * quota) + c.issued);
    if not (Addr.equal src server_addr && src_port = server_port
            && String.length data = size
            && Common.matches pool (request_offset c (c.issued - 1)) data 0 size)
    then c.bad <- c.bad + 1
    else begin
      c.completed <- c.completed + 1;
      Phase.complete p ~ops:1 ~bytes:(2 * size) ~lat_ns:lat
        ~sim_lat_s:(Testbed.now tb -. c.sent_sim)
    end;
    if c.issued < quota then issue c
  in
  Array.iter
    (fun c ->
      Udp_stack.listen client_host ~port:c.port (fun ~src ~src_port data ->
          Probe.call Probe.app (reply c ~src ~src_port) data))
    cs;
  Array.iter issue cs;
  p.Phase.on_warm <- (fun () -> Engine.stop engine);
  let hosts = [ client_host; server_host ] in
  let registry = Testbed.metrics tb in
  {
    Run.warm_up = (fun () -> Testbed.run tb);
    measure = (fun () -> Testbed.run tb);
    verify =
      (fun () ->
        let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cs in
        let bad = sum (fun c -> c.bad) in
        {
          Run.attempted = sum (fun c -> c.issued);
          delivered = sum (fun c -> c.completed);
          counted = Common.counted_failures ~registry hosts medium;
          violations =
            (if bad > 0 then
               [ Printf.sprintf "%d requests or echoes differ from the seeded bytes" bad ]
             else [])
            @ (if sum (fun c -> c.issued) <> clients * quota then [ "a client stopped early" ]
               else [])
            @ if Engine.pending engine > 0 then [ "events left in the queue" ] else [];
        });
    layers = (fun () -> Common.fbs_layers registry @ Common.netsim_layers hosts medium);
    counters =
      (fun () -> Common.registry_counters registry @ Common.netsim_counters hosts medium);
  }

let workload = { Run.name = "rpc-64"; sizes; create }
