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

   When a datagram needs a master key that is not cached, its processing
   suspends while the MKD round-trips the network; the datagram is parked
   and finishes through [Host.transmit_prepared] / [Host.deliver_up] when
   the key arrives — the simulator's analogue of the paper's blocking
   Upcall(). *)

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
  cache_assoc : int;
  max_flow_bytes : int option;
  max_flow_life : float option;
  keying_fetch_retries : int;
      (** Extra keying-layer attempts after a failed certificate fetch
          (on top of the MKD's own retransmissions). *)
  combined_fast_path : bool;
      (** Use the Section 7.2 combined FST+TFKC table on the send side
          (one probe instead of FAM classification + TFKC lookup). *)
  batched_rx : bool;
      (** Route receive-side body opens through an
          {!Fbsr_fbs.Engine.Batch} (its open lane): frames arriving within
          [rx_linger] of each other decrypt in one cross-flow bitsliced
          sweep, delivered in arrival order via the parked-datagram
          upcall.  Verdicts and bytes are identical to the inline path;
          delivery of a deferrable frame lags arrival by at most
          [rx_linger]. *)
}

(* Max simulated-time residence of a frame in the receive batch: the
   on-park hook schedules a flush this far ahead. *)
let rx_linger = 0.001

let default_config ?(suite = Fbsr_fbs.Suite.paper_md5_des) ?(threshold = 600.0)
    ?(fst_size = 256) ?(replay_window_minutes = 2) ?(strict_replay = false)
    ?(secret_policy = fun ~protocol:_ ~src_port:_ ~dst_port:_ -> true)
    ?(bypass = fun _ -> false) ?(tfkc_sets = 128) ?(rfkc_sets = 128) ?(cache_assoc = 1)
    ?max_flow_bytes ?max_flow_life ?(keying_fetch_retries = 0)
    ?(combined_fast_path = false) ?(batched_rx = false) () =
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
    cache_assoc;
    max_flow_bytes;
    max_flow_life;
    keying_fetch_retries;
    combined_fast_path;
    batched_rx;
  }

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable suspended_out : int; (* datagrams parked awaiting a master key *)
  mutable suspended_in : int;
  mutable resumed : int;
  mutable dropped_error : int;
  mutable bypassed : int;
  mutable rx_batched : int; (* frames parked in the receive batch *)
}

type t = {
  host : Host.t;
  engine : Fbsr_fbs.Engine.t;
  config : config;
  counters : counters;
  spans : Fbsr_util.Span.t;
  policy_state : Fbsr_fbs.Policy_five_tuple.t;
  fast_path : Fast_path.t option; (* combined FST+TFKC, when configured *)
  rx_batch : Fbsr_fbs.Engine.Batch.t option; (* when batched_rx *)
  mutable rx_flush_scheduled : bool;
      (* one pending linger-flush event at a time; re-armed on the next
         enqueue after it fires *)
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
  register_probe s "rx_batched" (fun () -> c.rx_batched);
  Fbsr_fbs.Engine.register_metrics t.engine m
let policy_state t = t.policy_state
let fast_path t = t.fast_path
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

(* Send processing via the combined table (Section 7.2), as a producer
   of the wire form: one probe yields both the sfl and the flow key; a
   miss derives the key (possibly suspending on an MKD fetch) and
   installs it before sealing. *)
let send_via_fast_path t fp (h : Ipv4.header) ~src_port ~dst_port ~secret ~now ~payload
    k =
  let seal sfl flow_key =
    Fbsr_fbs.Engine.send_sealed t.engine ~now ~sfl ~flow_key ~secret ~payload
  in
  match
    Fast_path.lookup fp ~now ~protocol:h.protocol ~src:(Addr.to_string h.src)
      ~src_port ~dst:(Addr.to_string h.dst) ~dst_port
  with
  | Fast_path.Hit (sfl, flow_key) -> k (Ok (seal sfl flow_key))
  | Fast_path.Miss sfl ->
      Fbsr_fbs.Engine.derive_flow_key t.engine ~sfl ~src:(principal_of_addr h.src)
        ~dst:(principal_of_addr h.dst) (function
        | Ok flow_key ->
            Fast_path.install_key fp ~sfl ~flow_key;
            k (Ok (seal sfl flow_key))
        | Error _ as e -> k e)

let output_hook t (h : Ipv4.header) payload : Host.hook_result =
  if t.config.bypass h.dst then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    Host.Pass (h, payload)
  end
  else begin
    let src_port, dst_port = peek_ports ~protocol:h.protocol payload in
    let secret = t.config.secret_policy ~protocol:h.protocol ~src_port ~dst_port in
    let now = Host.now t.host in
    let sync_result = ref None in
    let completed_sync = ref true in
    (* The one send completion, for both the generic and the combined
       path. *)
    let k r =
      if !completed_sync then sync_result := Some r
      else begin
        (* Late completion: the datagram was parked during an MKD fetch. *)
        match r with
        | Ok wire ->
            t.counters.resumed <- t.counters.resumed + 1;
            t.counters.sent <- t.counters.sent + 1;
            Host.transmit_prepared t.host h wire
        | Error _ -> t.counters.dropped_error <- t.counters.dropped_error + 1
      end
    in
    (match t.fast_path with
    | Some fp -> send_via_fast_path t fp h ~src_port ~dst_port ~secret ~now ~payload k
    | None ->
        let attrs =
          Fbsr_fbs.Fam.attrs ~protocol:h.protocol ~src_port ~dst_port
            ~size:(String.length payload) ~src:(principal_of_addr h.src)
            ~dst:(principal_of_addr h.dst) ()
        in
        Fbsr_fbs.Engine.send t.engine ~now ~attrs ~secret ~payload k);
    completed_sync := false;
    match !sync_result with
    | Some (Ok wire) ->
        t.counters.sent <- t.counters.sent + 1;
        Host.Pass (h, wire)
    | Some (Error _) ->
        t.counters.dropped_error <- t.counters.dropped_error + 1;
        Host.Drop "fbs send error"
    | None ->
        t.counters.suspended_out <- t.counters.suspended_out + 1;
        Host.Drop "fbs awaiting master key"
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
    let parked0 = t.counters.rx_batched in
    let batch_parked = ref false in
    let k r =
      if !completed_sync then sync_result := Some r
      else begin
        (* Late completion: the datagram was parked — during an MKD fetch
           ([resumed]), or in the receive batch until its flush. *)
        match r with
        | Ok acc ->
            if not !batch_parked then
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
    Fbsr_fbs.Engine.receive ?batch:t.rx_batch t.engine ~now ~src ~wire:payload k;
    (* Parked synchronously in the receive batch (not refused inline, not
       delivered by a capacity flush): the batch's on-park hook (see
       [install]) counted it and armed the linger flush.  A frame that
       suspends on the receive-side master-key fetch parks later, from
       the resumed keying continuation's event — the hook covers that
       too, where no synchronous check here could observe it. *)
    if Option.is_none !sync_result && t.counters.rx_batched > parked0 then
      batch_parked := true;
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
        if !batch_parked then
          (* Delivered from the batch flush via [Host.deliver_up]. *)
          Host.Drop "fbs rx batched"
        else begin
          t.counters.suspended_in <- t.counters.suspended_in + 1;
          Host.Drop "fbs awaiting master key"
        end
  end

let install ?(config = default_config ()) ?(sfl_seed = 0x5f1)
    ?(spans = Fbsr_util.Span.none) ~private_value ~group ~ca_public ~ca_hash
    ~resolver host =
  let local = principal_of_addr (Host.addr host) in
  let keying =
    Fbsr_fbs.Keying.create ~fetch_retries:config.keying_fetch_retries ~local
      ~group ~private_value ~ca_public ~ca_hash ~resolver
      ~clock:(fun () -> Host.now host)
      ()
  in
  let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create sfl_seed) in
  let policy, policy_state =
    Fbsr_fbs.Policy_five_tuple.policy_with_state ~fst_size:config.fst_size
      ~threshold:config.threshold ?max_flow_bytes:config.max_flow_bytes
      ?max_flow_life:config.max_flow_life ~alloc ()
  in
  let fam = Fbsr_fbs.Fam.create policy in
  let engine =
    Fbsr_fbs.Engine.create ~suite:config.suite ~tfkc_sets:config.tfkc_sets
      ~rfkc_sets:config.rfkc_sets ~cache_assoc:config.cache_assoc
      ~replay_window_minutes:config.replay_window_minutes
      ~strict_replay:config.strict_replay ~spans ~keying ~fam ()
  in
  let fast_path =
    if config.combined_fast_path then
      Some
        (Fast_path.create ~size:config.fst_size ~threshold:config.threshold
           ~alloc:(Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create (sfl_seed lxor 0x77)))
           ())
    else None
  in
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
          rx_batched = 0;
        };
      policy_state;
      fast_path;
      rx_batch =
        (if config.batched_rx then
           Some (Fbsr_fbs.Engine.Batch.create engine)
         else None);
      rx_flush_scheduled = false;
    }
  in
  (* Arm the rx linger flush from the batch's own enqueue, so every park
     is covered — in particular a frame whose keying suspended, which
     enqueues from the resumed continuation's event, after [input_hook]
     has long returned.  The hook always runs inside a scheduler event
     (packet arrival or MKD-reply continuation), so [Engine.schedule] is
     available. *)
  (match t.rx_batch with
  | None -> ()
  | Some b ->
      Fbsr_fbs.Engine.Batch.set_on_park b (fun () ->
          t.counters.rx_batched <- t.counters.rx_batched + 1;
          if not t.rx_flush_scheduled then begin
            t.rx_flush_scheduled <- true;
            Engine.schedule (Host.engine t.host) ~delay:rx_linger
              (fun () ->
                t.rx_flush_scheduled <- false;
                ignore (Fbsr_fbs.Engine.Batch.flush b : int * int))
          end));
  Host.set_output_hook host (output_hook t);
  Host.set_input_hook host (input_hook t);
  (* The paper's tcp_output fix: publish the per-datagram overhead so the
     MSS calculation can subtract it. *)
  Minitcp.set_mss_reduction host (Fbsr_fbs.Engine.wire_overhead engine);
  t

(* The standalone sweeper of Figure 7: periodically scan the FST and
   expire idle flows.  The paper's Section 7.2 implementation absorbs
   sweeping into the mapping phase (which [Policy_five_tuple.map] and the
   fast path both do); running the explicit sweeper as well bounds the
   table's occupancy between packets, at a configurable period. *)
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
