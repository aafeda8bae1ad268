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
   one, every lone [ip_output] another), and each datagram is answered
   through the host's continuation the moment its seal completes.  A
   secret seal parks its encryption in the stack's one-slot batch, and
   the burst's next secret seal runs both CBC chains as a pair on the
   two-chain kernel; any other datagram (non-secret, bypassed) first
   flushes the slot.  Burst end flushes an odd one out.  Completions
   come in call order, so the wire order is the call order.

   When a datagram needs a master key that is not cached, its processing
   suspends while the MKD round-trips the network; the engine's
   completion answers the host when the key arrives, along the same path
   — the simulator's analogue of the paper's blocking Upcall().  A
   completion that runs outside the stack's own hooks resumed after a
   keying fetch. *)

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

(* Each field is documented in stack.mli. *)
type counters = {
  mutable sent : int;
  mutable received : int;
  mutable suspended_out : int;
  mutable suspended_in : int;
  mutable resumed : int;
  mutable dropped_error : int;
  mutable bypassed : int;
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
  mutable hooks : int; (* the stack's hooks now running, nested ones counted *)
  mutable completed : Ipv4.header; (* the datagram the last completion answered *)
  local_addr : Addr.t;
  local : Fbsr_fbs.Principal.t; (* [local_addr]'s principal, named once *)
  memo_addr : int array; (* peer principals, direct-mapped; -1 is empty *)
  memo_name : Fbsr_fbs.Principal.t array;
}

let engine t = t.engine
let counters t = t.counters

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

(* Peer principals are named through a direct-mapped memo of fixed size:
   a warm peer costs a probe, not a dotted quad per datagram, and a flood
   of forged sources only evicts entries, never grows the table. *)
let memo_size = 64

let principal t addr =
  if Addr.equal addr t.local_addr then t.local
  else begin
    let a = Addr.to_int addr in
    let i = (a lxor (a lsr 6) lxor (a lsr 12)) land (memo_size - 1) in
    if Array.unsafe_get t.memo_addr i = a then Array.unsafe_get t.memo_name i
    else begin
      let p = principal_of_addr addr in
      t.memo_addr.(i) <- a;
      t.memo_name.(i) <- p;
      p
    end
  end

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

(* Run [hook t a b c] as one of the stack's hooks. *)
let hooked hook t a b c =
  t.hooks <- t.hooks + 1;
  match hook t a b c with
  | () -> t.hooks <- t.hooks - 1
  | exception e ->
      t.hooks <- t.hooks - 1;
      raise e

(* The one send completion.  It answers the host, and only then marks
   its datagram completed: the answer may run other datagrams' hooks. *)
let sent t h k r =
  (match r with
  | Ok wire ->
      t.counters.sent <- t.counters.sent + 1;
      if t.hooks = 0 then t.counters.resumed <- t.counters.resumed + 1;
      k (Host.Pass (h, wire))
  | Error _ ->
      t.counters.dropped_error <- t.counters.dropped_error + 1;
      k (Host.Drop "fbs send error"));
  t.completed <- h

let output_hook t (h : Ipv4.header) payload k =
  if t.config.bypass h.dst then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    ignore (Fbsr_fbs.Engine.Batch.flush t.tx_batch : int);
    k (Host.Pass (h, payload))
  end
  else begin
    let src_port, dst_port = peek_ports ~protocol:h.protocol payload in
    let secret = t.config.secret_policy ~protocol:h.protocol ~src_port ~dst_port in
    let attrs =
      Fbsr_fbs.Fam.attrs ~protocol:h.protocol ~src_port ~dst_port
        ~size:(String.length payload) ~src:(principal t h.src)
        ~dst:(principal t h.dst) ()
    in
    let parked0 = Fbsr_fbs.Engine.Batch.pending t.tx_batch in
    Fbsr_fbs.Engine.send ?batch:t.tx_seals t.engine ~now:(Host.now t.host) ~attrs
      ~secret ~payload (sent t h k);
    if t.completed != h && Fbsr_fbs.Engine.Batch.pending t.tx_batch <= parked0 then
      t.counters.suspended_out <- t.counters.suspended_out + 1
  end

(* Burst end, a hook too: seal what is parked. *)
let end_burst t () () () = ignore (Fbsr_fbs.Engine.Batch.flush t.tx_batch : int)

(* The one receive completion. *)
let received t (h : Ipv4.header) k r =
  (match r with
  | Ok acc ->
      t.counters.received <- t.counters.received + 1;
      if t.hooks = 0 then t.counters.resumed <- t.counters.resumed + 1;
      k (Host.Pass (h, acc.Fbsr_fbs.Engine.payload))
  | Error _ ->
      t.counters.dropped_error <- t.counters.dropped_error + 1;
      k (Host.Drop "fbs receive error"));
  t.completed <- h

(* The shim carries the engine's wire form as the IP payload itself, so
   the engine borrows it as-is (zero-copy). *)
let open_datagram t (h : Ipv4.header) payload k =
  if Fbsr_util.Span.enabled t.spans then
    Fbsr_util.Span.finish t.spans (Fbsr_util.Span.start t.spans) "stack.decap"
      ~detail:
        [
          ("ok", Fbsr_util.Json.Bool true);
          ("bytes", Fbsr_util.Json.Int (String.length payload));
        ];
  Fbsr_fbs.Engine.receive t.engine ~now:(Host.now t.host) ~src:(principal t h.src)
    ~wire:payload (received t h k);
  if t.completed != h then t.counters.suspended_in <- t.counters.suspended_in + 1

(* A bypassed datagram is passed outside the stack's hooks: the key
   server's replies it carries resume datagrams that waited for a key. *)
let input_hook t (h : Ipv4.header) payload k =
  if t.config.bypass h.src then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    k (Host.Pass (h, payload))
  end
  else hooked open_datagram t h payload k

(* How many sfl allocators a host has seeded from one base seed, less one. *)
exception Seeded of int ref

(* Paper Section 5.3: the sfl counter's start must not repeat when the
   protocol subsystem is reset.  A host's first allocator from [base]
   keeps it; each later one mixes in the count of those before, so a
   re-installed layer draws fresh sfls and with them fresh flow keys. *)
let sfl_allocator host base =
  let tag = Printf.sprintf "fbs.sfl_seed.%x" base in
  let n = match Host.find_extension host ~tag with Some (Seeded n) -> n | _ -> ref (-1) in
  incr n;
  Host.set_extension host ~tag (Seeded n);
  Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create (base lxor (!n lsl 16)))

let install ?(config = default_config ()) ?(spans = Fbsr_util.Span.none)
    ~private_value ~group ~ca_public ~resolver host =
  let local = principal_of_addr (Host.addr host) in
  let keying =
    Fbsr_fbs.Keying.create ~local ~group ~private_value ~ca_public ~resolver
      ~clock:(fun () -> Host.now host) ()
  in
  (* Every host's first stack seeds its sfl allocator alike: an sfl is
     unique only per sender, which is why the RFKC and the strict replay
     window key on the peer too. *)
  let alloc = sfl_allocator host 0x5f1 in
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
      hooks = 0;
      completed = no_header;
      local_addr = Host.addr host;
      local;
      memo_addr = Array.make memo_size (-1);
      memo_name = Array.make memo_size local;
    }
  in
  Host.set_output_hook host (hooked output_hook t);
  Host.set_burst_end host (hooked end_burst t () ());
  Host.set_input_hook host (input_hook t);
  (* The paper's tcp_output fix: publish the per-datagram overhead so the
     MSS calculation can subtract it. *)
  Minitcp.set_mss_reduction host (Fbsr_fbs.Engine.wire_overhead engine);
  t

let uninstall t =
  Host.clear_hooks t.host;
  Minitcp.set_mss_reduction t.host 0
