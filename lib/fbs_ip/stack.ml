(* The mapping of FBS to IP (paper, Section 7).

   The FBS header is inserted as a shim between the IPv4 header and the
   transport payload, a short cut of full IP-in-IP.  Send processing hooks
   between ip_output's bulk processing and fragmentation; receive
   processing hooks between reassembly and dispatch; both are transparent
   to IP (the host stack provides exactly those hook points).  tcp_output's
   MSS calculation learns the FBS overhead through
   [Minitcp.set_mss_reduction], reproducing the paper's third kernel
   change.

   The flow policy is Section 7.1's 5-tuple + THRESHOLD policy: the
   classifier peeks at the transport ports just past the IP header — the
   same layering violation the paper defends in footnote 9.

   Traffic to or from the key server bypasses FBS (the "secure flow
   bypass" of Figure 5): securing certificate fetches would be circular,
   and certificates are verified on receipt.

   Sending runs in output bursts ([Host.burst]; a TCP send window is
   one, every lone [ip_output] another).  Each datagram of a burst takes
   the next slot of an ordered outbox; a secret seal parks its
   encryption in the stack's one-slot batch, and the burst's next secret
   seal runs both CBC chains as a pair on the two-chain kernel.  At
   burst end the batch flushes an odd one out, then the outbox transmits
   in call order.  Bypassed and inline-sealed datagrams wait in their
   slots too, so the wire order is the call order.

   When a datagram needs a master key that is not cached, its processing
   suspends while the MKD round-trips the network; the datagram leaves
   its burst and finishes through [Host.transmit_prepared] /
   [Host.deliver_up] when the key arrives — the simulator's analogue of
   the paper's blocking Upcall(). *)

open Fbsr_netsim

type config = {
  suite : Fbsr_fbs.Suite.t;
  threshold : float;
  fst_size : int;
  replay_window_minutes : int;
  strict_replay : bool;
  secret_policy : protocol:int -> src_port:int -> dst_port:int -> bool;
  bypass : Addr.t -> bool;
  tfkc_sets : int;
  rfkc_sets : int;
  max_flow_bytes : int option;
  max_flow_life : float option;
}

let default_config ?(suite = Fbsr_fbs.Suite.paper_md5_des) ?(threshold = 600.0)
    ?(fst_size = 256) ?(replay_window_minutes = 2) ?(strict_replay = false)
    ?(secret_policy = fun ~protocol:_ ~src_port:_ ~dst_port:_ -> true)
    ?(bypass = fun _ -> false) ?(tfkc_sets = 128) ?(rfkc_sets = 128)
    ?max_flow_bytes ?max_flow_life () =
  {
    suite;
    threshold;
    fst_size;
    replay_window_minutes;
    strict_replay;
    secret_policy;
    bypass;
    tfkc_sets;
    rfkc_sets;
    max_flow_bytes;
    max_flow_life;
  }

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable suspended_out : int; (* datagrams parked awaiting a master key *)
  mutable suspended_in : int;
  mutable resumed : int;
  mutable dropped_error : int;
  mutable bypassed : int;
}

(* One datagram of the current output burst.  Slots are reused from
   burst to burst; [ticket] tells a seal completion whether its slot is
   still its own (else the datagram left its burst on a keying fetch).
   A [Dropped] slot keeps its place but transmits nothing: a hook can
   run nested inside another (an MKD fetch sends from within a seal), so
   the slot that leaves is not always the last one. *)
type state = Waiting | Sealed | Dropped

type slot = {
  mutable h : Ipv4.header;
  mutable wire : string;
  mutable state : state;
  mutable trace : int64; (* the span trace id to transmit under *)
  mutable ticket : int;
}

type t = {
  host : Host.t;
  engine : Fbsr_fbs.Engine.t;
  config : config;
  counters : counters;
  spans : Fbsr_util.Span.t;
  policy_state : Fbsr_fbs.Policy_five_tuple.t;
  tx_batch : Fbsr_fbs.Engine.Batch.t; (* holds the burst's secret seals *)
  tx_seals : Fbsr_fbs.Engine.Batch.t option; (* [Some tx_batch], wrapped once *)
  mutable outbox : slot array;
  mutable queued : int; (* slots of the open burst, in call order *)
  mutable tickets : int;
}

let engine t = t.engine
let counters t = t.counters
let host t = t.host

(* Register the stack's own counters (under "fbs_ip.stack.") and the whole
   engine subtree (under "fbs.") on [m].  Pass [Metrics.sub m
   "host.<addr>"] for a per-host view; several stacks on one registry sum. *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  let s = sub m "fbs_ip.stack" in
  let c = t.counters in
  register_probe s "sent" (fun () -> c.sent);
  register_probe s "received" (fun () -> c.received);
  register_probe s "suspended_out" (fun () -> c.suspended_out);
  register_probe s "suspended_in" (fun () -> c.suspended_in);
  register_probe s "resumed" (fun () -> c.resumed);
  register_probe s "dropped_error" (fun () -> c.dropped_error);
  register_probe s "bypassed" (fun () -> c.bypassed);
  Fbsr_fbs.Engine.register_metrics t.engine m
let policy_state t = t.policy_state
let principal_of_addr addr = Fbsr_fbs.Principal.of_string (Addr.to_string addr)

(* Peek transport ports just past the IP header (footnote 9's layering
   violation).  Returns (0,0) when the protocol has no ports or the
   datagram is too short (e.g. a non-first fragment of a bypassed flow —
   FBS itself always sees whole datagrams). *)
let peek_ports ~protocol payload =
  if (protocol = Ipv4.proto_tcp || protocol = Ipv4.proto_udp)
     && String.length payload >= 4
  then
    ( (Char.code payload.[0] lsl 8) lor Char.code payload.[1],
      (Char.code payload.[2] lsl 8) lor Char.code payload.[3] )
  else (0, 0)

let no_header =
  Ipv4.make ~protocol:0 ~src:Addr.any ~dst:Addr.any ~payload_length:0 ()

(* The next outbox slot, for a datagram with header [h]. *)
let claim t h =
  if t.queued = Array.length t.outbox then
    t.outbox <-
      Array.init
        (max 8 (2 * t.queued))
        (fun i ->
          if i < t.queued then t.outbox.(i)
          else { h = no_header; wire = ""; state = Waiting; trace = 0L; ticket = -1 });
  let s = t.outbox.(t.queued) in
  t.queued <- t.queued + 1;
  t.tickets <- t.tickets + 1;
  s.h <- h;
  s.state <- Waiting;
  s.ticket <- t.tickets;
  s

(* The datagram leaves its burst: refused, or waiting on keying. *)
let release s =
  s.state <- Dropped;
  s.ticket <- -1

(* The one send completion.  While its slot is still its own, the seal
   waits there for the burst's end; a seal that resumed after a keying
   fetch (its burst long over) transmits at once. *)
let complete t s ticket h r =
  let mine = s.ticket = ticket in
  match r with
  | Ok wire ->
      t.counters.sent <- t.counters.sent + 1;
      if mine then begin
        s.wire <- wire;
        s.state <- Sealed;
        s.trace <- Fbsr_util.Span.current ()
      end
      else begin
        t.counters.resumed <- t.counters.resumed + 1;
        Host.transmit_prepared t.host h wire
      end
  | Error _ ->
      t.counters.dropped_error <- t.counters.dropped_error + 1;
      if mine then release s

let output_hook t (h : Ipv4.header) payload : Host.hook_result =
  let s = claim t h in
  if t.config.bypass h.dst then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    s.wire <- payload;
    s.state <- Sealed;
    s.trace <- Fbsr_util.Span.current ();
    Host.Held
  end
  else begin
    let src_port, dst_port = peek_ports ~protocol:h.protocol payload in
    let secret = t.config.secret_policy ~protocol:h.protocol ~src_port ~dst_port in
    let attrs =
      Fbsr_fbs.Fam.attrs ~protocol:h.protocol ~src_port ~dst_port
        ~size:(String.length payload) ~src:(principal_of_addr h.src)
        ~dst:(principal_of_addr h.dst) ()
    in
    let parked0 = Fbsr_fbs.Engine.Batch.pending t.tx_batch in
    Fbsr_fbs.Engine.send ?batch:t.tx_seals t.engine ~now:(Host.now t.host) ~attrs
      ~secret ~payload (complete t s s.ticket h);
    match s.state with
    | Sealed -> Host.Held
    | Waiting when Fbsr_fbs.Engine.Batch.pending t.tx_batch > parked0 -> Host.Held
    | Dropped -> Host.Drop "fbs send error"
    | Waiting ->
        release s;
        t.counters.suspended_out <- t.counters.suspended_out + 1;
        Host.Drop "fbs awaiting master key"
  end

(* Transmit the sealed slots of [i, n) in call order, each under its
   own trace id.  A [Send_error] (DF set, datagram too big) does not
   strand the slots behind it: they go out first, then the first error
   is raised. *)
let rec transmit_slots t i n =
  if i < n then begin
    let s = t.outbox.(i) in
    let wire = s.wire in
    s.wire <- "";
    Fbsr_util.Span.set_current s.trace;
    match if s.state = Sealed then Host.transmit_prepared t.host s.h wire with
    | () -> transmit_slots t (i + 1) n
    | exception e ->
        (try transmit_slots t (i + 1) n with Host.Send_error _ -> ());
        raise e
  end

(* Burst end: seal everything parked, then transmit the outbox. *)
let end_burst t =
  if t.queued > 0 then begin
    ignore (Fbsr_fbs.Engine.Batch.flush t.tx_batch : int);
    let n = t.queued in
    t.queued <- 0;
    let ambient = Fbsr_util.Span.current () in
    match transmit_slots t 0 n with
    | () -> Fbsr_util.Span.set_current ambient
    | exception e ->
        Fbsr_util.Span.set_current ambient;
        raise e
  end

let input_hook t (h : Ipv4.header) payload : Host.hook_result =
  if t.config.bypass h.src then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    Host.Pass (h, payload)
  end
  else begin
    (* The shim carries the engine's wire form as the IP payload itself,
       so the engine borrows it as-is (zero-copy). *)
    if Fbsr_util.Span.enabled t.spans then
      Fbsr_util.Span.finish t.spans (Fbsr_util.Span.start t.spans) "stack.decap"
        ~detail:
          [
            ("ok", Fbsr_util.Json.Bool true);
            ("bytes", Fbsr_util.Json.Int (String.length payload));
          ];
    let now = Host.now t.host in
    let src = principal_of_addr h.src in
    let sync_result = ref None in
    let completed_sync = ref true in
    let k r =
      if !completed_sync then sync_result := Some r
      else begin
        (* Late completion: the datagram was parked during an MKD fetch. *)
        match r with
        | Ok acc ->
            t.counters.resumed <- t.counters.resumed + 1;
            t.counters.received <- t.counters.received + 1;
            let h =
              {
                h with
                Ipv4.total_length =
                  Ipv4.header_length h + String.length acc.Fbsr_fbs.Engine.payload;
              }
            in
            Host.deliver_up t.host h acc.Fbsr_fbs.Engine.payload
        | Error _ -> t.counters.dropped_error <- t.counters.dropped_error + 1
      end
    in
    Fbsr_fbs.Engine.receive t.engine ~now ~src ~wire:payload k;
    completed_sync := false;
    match !sync_result with
    | Some (Ok acc) ->
        t.counters.received <- t.counters.received + 1;
        Host.Pass
          ( {
              h with
              Ipv4.total_length =
                Ipv4.header_length h + String.length acc.Fbsr_fbs.Engine.payload;
            },
            acc.Fbsr_fbs.Engine.payload )
    | Some (Error _) ->
        t.counters.dropped_error <- t.counters.dropped_error + 1;
        Host.Drop "fbs receive error"
    | None ->
        t.counters.suspended_in <- t.counters.suspended_in + 1;
        Host.Drop "fbs awaiting master key"
  end

let install ?(config = default_config ()) ?(spans = Fbsr_util.Span.none)
    ~private_value ~group ~ca_public ~ca_hash ~resolver host =
  let local = principal_of_addr (Host.addr host) in
  let keying =
    Fbsr_fbs.Keying.create ~local ~group ~private_value ~ca_public ~ca_hash
      ~resolver ~clock:(fun () -> Host.now host) ()
  in
  (* Every stack seeds its sfl allocator alike: an sfl is unique only per
     sender, which is why the RFKC and the strict replay window key on the
     peer too. *)
  let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create 0x5f1) in
  let policy, policy_state =
    Fbsr_fbs.Policy_five_tuple.policy_with_state ~fst_size:config.fst_size
      ~threshold:config.threshold ?max_flow_bytes:config.max_flow_bytes
      ?max_flow_life:config.max_flow_life ~alloc ()
  in
  let fam = Fbsr_fbs.Fam.create policy in
  let engine =
    Fbsr_fbs.Engine.create ~suite:config.suite ~tfkc_sets:config.tfkc_sets
      ~rfkc_sets:config.rfkc_sets
      ~replay_window_minutes:config.replay_window_minutes
      ~strict_replay:config.strict_replay ~spans ~keying ~fam ()
  in
  let tx_batch = Fbsr_fbs.Engine.Batch.create engine in
  let t =
    {
      host;
      engine;
      config;
      spans;
      counters =
        {
          sent = 0;
          received = 0;
          suspended_out = 0;
          suspended_in = 0;
          resumed = 0;
          dropped_error = 0;
          bypassed = 0;
        };
      policy_state;
      tx_batch;
      tx_seals = Some tx_batch;
      outbox = [||];
      queued = 0;
      tickets = 0;
    }
  in
  (* A seal parks from inside [output_hook] (its burst's end flushes it)
     or, when its keying suspended, from the resumed continuation's
     event, with no burst open: then it flushes at once. *)
  Fbsr_fbs.Engine.Batch.set_on_park t.tx_batch (fun () ->
      if t.queued = 0 then ignore (Fbsr_fbs.Engine.Batch.flush t.tx_batch : int));
  Host.set_output_hook host (output_hook t);
  Host.set_burst_end host (fun () -> end_burst t);
  Host.set_input_hook host (input_hook t);
  (* The paper's tcp_output fix: publish the per-datagram overhead so the
     MSS calculation can subtract it. *)
  Minitcp.set_mss_reduction host (Fbsr_fbs.Engine.wire_overhead engine);
  t

(* The standalone sweeper of Figure 7: periodically scan the FST and
   expire idle flows.  The paper's Section 7.2 implementation absorbs
   sweeping into the mapping phase (which [Policy_five_tuple.map] does);
   running the explicit sweeper as well bounds the table's occupancy
   between packets, at a configurable period. *)
let start_sweeper ?(period = 60.0) t =
  let engine = Host.engine t.host in
  let rec tick () =
    ignore (Fbsr_fbs.Policy_five_tuple.sweep t.policy_state ~now:(Host.now t.host));
    Engine.schedule engine ~delay:period tick
  in
  Engine.schedule engine ~delay:period tick

let uninstall t =
  Host.clear_hooks t.host;
  Minitcp.set_mss_reduction t.host 0
