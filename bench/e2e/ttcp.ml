(* ttcp-fbs and ttcp-plain: the paper's Figure 8 workload.  Eight
   concurrent Minitcp bulk transfers between two hosts, either FBS hosts
   (DES+MD5, every flow secret) or GENERIC ones that bypass every FBS
   layer.  The app writes 8 KiB chunks and keeps 4 of them (a 32 KiB
   socket buffer) outstanding per connection; an op is one chunk,
   complete when its last byte reaches the receiving app.  Few chunks in
   flight keep one scheduling hiccup from delaying 1% of a block's
   chunks at once, which would make the p99 measure the hiccup. *)

open Fbsr_netsim
module Testbed = Fbsr_fbs_ip.Testbed

let conns = 8
let chunk = 8192
let window = 4
let warm_chunks = 32 (* per connection: handshakes, key set-up, slow start *)

(* Chunks per wall second of measurement, all connections together, on
   a 2-core x86-64 machine. *)
let fbs_rate = 2000.0
let plain_rate = 17000.0

let sizes ~rate ~seconds ~scale =
  let round n = max conns (n / conns * conns) in
  ( round (int_of_float (float_of_int (conns * warm_chunks) *. scale)),
    round (int_of_float (rate *. seconds *. scale)) )

type stream = {
  id : int;
  offset : int;  (* where the stream starts in the pool *)
  mutable conn : Minitcp.conn option;  (* sender side *)
  mutable issued : int;
  mutable completed : int;
  mutable received : int;  (* bytes *)
  mutable mismatches : int;
  sent_ns : int array;  (* per outstanding chunk, by chunk index mod window *)
  sent_sim : float array;
}

let create ~fbs ~seed ~traced (p : Phase.t) =
  let rng = Fbsr_util.Rng.create seed in
  let tb = Common.testbed () in
  let sender, receiver =
    if fbs then
      ( (Testbed.add_host tb ~name:"sender" ~addr:"10.0.0.1").Testbed.host,
        (Testbed.add_host tb ~name:"receiver" ~addr:"10.0.0.2").Testbed.host )
    else
      ( Testbed.add_plain_host tb ~name:"sender" ~addr:"10.0.0.1",
        Testbed.add_plain_host tb ~name:"receiver" ~addr:"10.0.0.2" )
  in
  let medium = Testbed.medium tb and engine = Testbed.engine tb in
  if traced then begin
    Common.time_rx medium Probe.rx_src sender;
    Common.time_rx medium Probe.rx_dst receiver;
    Common.time_key_server tb
  end;
  (* Minitcp numbers a fresh host's connections from 0x8000 up; the
     listening port is drawn until all sixteen flows (data and ACKs) have
     flow-table slots of their own. *)
  let local_ports = List.init conns (fun i -> 0x8000 + i) in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  let rec draw_port () =
    let port = 1024 + Fbsr_util.Rng.int rng 30000 in
    let slots src dst sport dport =
      List.map (fun lp -> Common.fst_slot ~protocol:6 src (sport lp) dst (dport lp)) local_ports
    in
    let s = Host.addr sender and r = Host.addr receiver in
    if distinct (slots s r Fun.id (fun _ -> port)) && distinct (slots r s (fun _ -> port) Fun.id)
    then port
    else draw_port ()
  in
  let port = draw_port () in
  let pool = Common.pool rng 65521 in
  (* Per connection: warm-up, measured share, and a tail that drains
     unmeasured, so every connection is still busy when measuring ends. *)
  let total = ((p.Phase.warm + p.Phase.ops) / conns) + window in
  let streams =
    Array.init conns (fun id ->
        {
          id;
          offset = Fbsr_util.Rng.int rng pool.Common.len;
          conn = None;
          issued = 0;
          completed = 0;
          received = 0;
          mismatches = 0;
          sent_ns = Array.make window 0;
          sent_sim = Array.make window 0.0;
        })
  in
  let by_port = Hashtbl.create conns in
  let write s c =
    let k = s.issued in
    s.issued <- k + 1;
    s.sent_ns.(k mod window) <- Probe.now_ns ();
    s.sent_sim.(k mod window) <- Testbed.now tb;
    Probe.report_op ((s.id * total) + k + 1);
    Probe.call2 Probe.tx Minitcp.send c (Common.slice pool (s.offset + (k * chunk)) chunk);
    if s.issued = total then Minitcp.close c
  in
  let on_data s data =
    let n = String.length data in
    if not (Common.matches pool (s.offset + s.received) data 0 n) then
      s.mismatches <- s.mismatches + 1;
    s.received <- s.received + n;
    while s.received >= (s.completed + 1) * chunk do
      let k = s.completed in
      s.completed <- k + 1;
      Probe.report_op ((s.id * total) + k + 1);
      Phase.complete p ~ops:1 ~bytes:chunk
        ~lat_ns:(Probe.now_ns () - s.sent_ns.(k mod window))
        ~sim_lat_s:(Testbed.now tb -. s.sent_sim.(k mod window));
      match s.conn with
      | Some c when s.issued < total -> write s c
      | _ -> ()
    done
  in
  let accepted = ref [] in
  Minitcp.listen receiver ~port (fun c ->
      match Hashtbl.find_opt by_port (snd (Minitcp.peer c)) with
      | None -> Minitcp.abort c
      | Some s ->
          accepted := c :: !accepted;
          Minitcp.on_receive c (fun data -> Probe.call2 Probe.app on_data s data);
          Minitcp.on_close c (fun () -> Minitcp.close c));
  Array.iter
    (fun s ->
      let c = Minitcp.connect sender ~dst:(Host.addr receiver) ~dst_port:port in
      Hashtbl.replace by_port (Minitcp.local_port c) s;
      s.conn <- Some c;
      Minitcp.on_established c (fun () ->
          for _ = 1 to window do
            write s c
          done))
    streams;
  p.Phase.on_warm <- (fun () -> Engine.stop engine);
  let hosts = [ sender; receiver ] in
  let all_conns () = List.filter_map (fun s -> s.conn) (Array.to_list streams) @ !accepted in
  {
    Run.warm_up = (fun () -> Testbed.run tb);
    measure = (fun () -> Testbed.run tb);
    verify =
      (fun () ->
        let delivered = Array.fold_left (fun acc s -> acc + s.completed) 0 streams in
        let violations =
          List.concat_map
            (fun s ->
              (if s.mismatches > 0 then
                 [
                   Printf.sprintf "stream %d: %d pieces differ from the sent bytes" s.id
                     s.mismatches;
                 ]
               else [])
              @ (if s.received <> total * chunk then
                   [
                     Printf.sprintf "stream %d: %d bytes received, %d sent" s.id s.received
                       (total * chunk);
                   ]
                 else [])
            )
            (Array.to_list streams)
          @ (if List.map (fun s -> Option.map Minitcp.local_port s.conn) (Array.to_list streams)
                <> List.map Option.some local_ports
             then [ "connections did not get the ports the flow-table check planned for" ]
             else [])
          @ (if List.exists (fun c -> Minitcp.state c <> Minitcp.Closed) (all_conns ()) then
               [ "a connection did not close" ]
             else [])
          @ if Engine.pending engine > 0 then [ "events left in the queue" ] else []
        in
        { Run.attempted = conns * total; delivered; counted = 0; violations });
    layers =
      (fun () ->
        let conns = all_conns () in
        Common.fbs_layers (Testbed.metrics tb)
        @ Common.netsim_layers hosts medium
        @ [
            ( "tcp.retransmits",
              float_of_int (List.fold_left (fun a c -> a + Minitcp.retransmits c) 0 conns) );
            ( "tcp.segments_out",
              float_of_int (List.fold_left (fun a c -> a + Minitcp.segments_out c) 0 conns) );
          ]);
    counters =
      (fun () ->
        Common.registry_counters (Testbed.metrics tb)
        @ Common.netsim_counters hosts medium
        @ List.concat_map
            (fun s ->
              match s.conn with
              | None -> []
              | Some c ->
                  let pre = Printf.sprintf "tcp.stream%d." s.id in
                  [
                    (pre ^ "segments_out", Minitcp.segments_out c);
                    (pre ^ "retransmits", Minitcp.retransmits c);
                    (pre ^ "bytes_received", s.received);
                  ])
            (Array.to_list streams));
  }

let fbs = { Run.name = "ttcp-fbs"; sizes = sizes ~rate:fbs_rate; create = create ~fbs:true }

let plain =
  { Run.name = "ttcp-plain"; sizes = sizes ~rate:plain_rate; create = create ~fbs:false }
