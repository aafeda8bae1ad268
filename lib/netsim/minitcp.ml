(* A miniature TCP: 3-way handshake, cumulative ACKs, a Reno-style
   congestion-controlled sliding window (slow start, AIMD, fast
   retransmit on three duplicate ACKs, NewReno partial-ack recovery),
   adaptive RTO with exponential backoff, out-of-order reassembly, FIN
   teardown.  Enough machinery to run ttcp-style bulk transfers
   (Figure 8) over the simulated network and to exercise the paper's
   tcp_output MSS fix: tcp_output computes exactly how much data fits in
   a packet without fragmentation and sets DF, which breaks when FBS
   grows the datagram — so, like the paper, the MSS calculation reads
   the security-header allowance published by the host's security
   layer. *)

(* The FBS IP mapping stores its header size under this extension tag so
   that MSS computation can subtract it (the paper's tcp_output change). *)
exception Mss_reduction of int

let mss_reduction_tag = "tcp-mss-reduction"

let set_mss_reduction host n =
  Host.set_extension host ~tag:mss_reduction_tag (Mss_reduction n)

let mss_reduction host =
  match Host.find_extension host ~tag:mss_reduction_tag with
  | Some (Mss_reduction n) -> n
  | Some _ | None -> 0

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait (* we sent FIN, waiting for its ACK (and possibly peer FIN) *)
  | Close_wait (* peer sent FIN; we have not closed yet *)
  | Last_ack (* peer closed, then we sent FIN *)
  | Closed

type conn = {
  host : Host.t;
  local_port : int;
  peer : Addr.t;
  peer_port : int;
  window : int; (* our advertised receive window *)
  (* Adaptive retransmission timeout (RFC 6298 style): smoothed RTT and
     variance estimated from ack timing, Karn's rule (no samples across
     retransmissions), exponential backoff on timeout. *)
  mutable rto : float;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rtt_probe : (int32 * float) option; (* ack that will sample, send time *)
  (* Congestion control (RFC 5681/6582): slow start below [ssthresh],
     additive increase above it, fast retransmit after three duplicate
     ACKs with NewReno hole-filling until [recover], multiplicative
     decrease on loss.  Flight is capped by min(cwnd, peer window,
     [window]). *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable snd_wnd : int; (* peer's advertised window *)
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int32; (* snd_nxt when fast retransmit fired *)
  mutable state : state;
  mutable snd_una : int32;
  mutable snd_nxt : int32;
  sendq : Fbsr_util.Byte_queue.t; (* bytes from snd_una onward *)
  mutable fin_pending : bool;
  mutable fin_seq : int32 option; (* sequence number our FIN occupies *)
  mutable rcv_nxt : int32;
  ooo : (int32, string) Hashtbl.t; (* ahead-of-sequence segments, by seq *)
  mutable on_receive : string -> unit;
  mutable on_established : unit -> unit;
  mutable on_close : unit -> unit;
  mutable timer_gen : int;
  mutable timer_armed : bool;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable segments_out : int;
  mutable bytes_delivered : int;
}

type host_state = {
  conns : (int * int * int, conn) Hashtbl.t; (* local port, peer, peer port *)
  listeners : (int, conn -> unit) Hashtbl.t;
  mutable next_port : int;
  mutable next_iss : int32;
}

exception E of host_state

let tag = "minitcp"

let get host =
  match Host.find_extension host ~tag with
  | Some (E s) -> s
  | Some _ | None -> invalid_arg "Minitcp: not installed on this host"

let conn_key c = (c.local_port, Addr.to_int c.peer, c.peer_port)

let default_mss host =
  Host.mtu host - Ipv4.header_size - Tcp_seg.header_size - mss_reduction host

(* Like the paper's tcp_output, the segment-size computation reads the
   published security-header allowance every time it sizes a segment, so
   a reduction published after connection setup is honored immediately —
   including for connections established before the security layer came
   up. *)
let conn_mss c = default_mss c.host

(* Cap on buffered ahead-of-sequence segments; beyond it the receiver
   drops and relies on retransmission. *)
let max_ooo = 256

let make_conn host ~local_port ~peer ~peer_port ~iss ~state ?(window = 65535) ?(rto = 0.2)
    () =
  let mss = default_mss host in
  {
    host;
    local_port;
    peer;
    peer_port;
    window;
    rto;
    srtt = None;
    rttvar = 0.0;
    rtt_probe = None;
    cwnd = 2 * mss;
    ssthresh = 65535;
    snd_wnd = 65535;
    dup_acks = 0;
    in_recovery = false;
    recover = iss;
    state;
    snd_una = iss;
    snd_nxt = iss;
    sendq = Fbsr_util.Byte_queue.create ();
    fin_pending = false;
    fin_seq = None;
    rcv_nxt = 0l;
    ooo = Hashtbl.create 16;
    on_receive = (fun _ -> ());
    on_established = (fun () -> ());
    on_close = (fun () -> ());
    timer_gen = 0;
    timer_armed = false;
    retransmits = 0;
    fast_retransmits = 0;
    timeouts = 0;
    segments_out = 0;
    bytes_delivered = 0;
  }

let emit c ~seq ~flags payload =
  let h =
    {
      Tcp_seg.src_port = c.local_port;
      dst_port = c.peer_port;
      seq;
      ack_seq = c.rcv_nxt;
      flags;
      window = c.window land 0xffff;
    }
  in
  let raw = Tcp_seg.encode ~src:(Host.addr c.host) ~dst:c.peer h payload in
  c.segments_out <- c.segments_out + 1;
  (* tcp_output sets DF: it sized the segment to avoid fragmentation.  The
     MSS already accounts for the security header via [mss_reduction]. *)
  Host.ip_output c.host ~dont_fragment:true ~protocol:Ipv4.proto_tcp ~dst:c.peer raw

let ack_flags = { Tcp_seg.no_flags with ack = true }

let rec arm_timer c =
  if not c.timer_armed then begin
    c.timer_armed <- true;
    let gen = c.timer_gen in
    Engine.schedule (Host.engine c.host) ~delay:c.rto (fun () -> on_timer c gen)
  end

and on_timer c gen =
  if gen = c.timer_gen && c.state <> Closed then begin
    c.timer_armed <- false;
    let outstanding = Tcp_seg.seq_diff c.snd_nxt c.snd_una in
    if outstanding > 0 || c.state = Syn_sent || c.state = Syn_received then begin
      c.retransmits <- c.retransmits + 1;
      c.timeouts <- c.timeouts + 1;
      (* Timeout is the strong congestion signal: halve the flight into
         ssthresh, restart from one segment, abandon any fast-recovery
         episode. *)
      c.ssthresh <- max (outstanding / 2) (2 * (conn_mss c));
      c.cwnd <- (conn_mss c);
      c.dup_acks <- 0;
      c.in_recovery <- false;
      (* Exponential backoff; discard any in-flight RTT sample (Karn). *)
      c.rto <- Float.min 60.0 (c.rto *. 2.0);
      c.rtt_probe <- None;
      retransmit_one c;
      arm_timer c
    end
  end
  else if gen = c.timer_gen then c.timer_armed <- false

and cancel_timer c =
  c.timer_gen <- c.timer_gen + 1;
  c.timer_armed <- false

(* Resend only the first unacknowledged segment — the cumulative ACK (or
   the receiver's reassembly buffer) tells us nothing beyond the first
   hole, and resending the whole window is go-back-N waste. *)
and retransmit_one c =
  match c.state with
  | Syn_sent -> emit c ~seq:c.snd_una ~flags:{ Tcp_seg.no_flags with syn = true } ""
  | Syn_received ->
      emit c ~seq:c.snd_una ~flags:{ Tcp_seg.no_flags with syn = true; ack = true } ""
  | Established | Fin_wait | Close_wait | Last_ack -> (
      match c.fin_seq with
      | Some fs when Tcp_seg.seq_cmp c.snd_una fs >= 0 ->
          (* All data acked; the unacked octet is our FIN. *)
          emit c ~seq:fs ~flags:{ ack_flags with fin = true } ""
      | _ ->
          let outstanding = Tcp_seg.seq_diff c.snd_nxt c.snd_una in
          let data_out =
            match c.fin_seq with
            | Some fs when Tcp_seg.seq_cmp c.snd_nxt fs > 0 -> outstanding - 1
            | _ -> outstanding
          in
          let len = min (conn_mss c) data_out in
          if len > 0 then
            emit c ~seq:c.snd_una
              ~flags:{ ack_flags with psh = len = data_out }
              (Fbsr_util.Byte_queue.read c.sendq ~off:0 ~len))
  | Closed -> ()

(* The segments one call releases, FIN included, leave as one output
   burst: a security hook may then seal them together (see
   [Host.burst]), and they still reach the wire in sequence order. *)
and try_output c =
  match c.state with
  | Established | Close_wait -> Host.burst c.host (fun () -> output_window c)
  | Syn_sent | Syn_received | Fin_wait | Last_ack | Closed -> ()

and output_window c =
  let effective_window = min c.window (min c.cwnd (max (conn_mss c) c.snd_wnd)) in
  let in_flight = Tcp_seg.seq_diff c.snd_nxt c.snd_una in
  let unsent = Fbsr_util.Byte_queue.length c.sendq - in_flight in
  let budget = ref (min unsent (effective_window - in_flight)) in
  while !budget > 0 do
    let in_flight = Tcp_seg.seq_diff c.snd_nxt c.snd_una in
    let len = min (conn_mss c) !budget in
    let payload = Fbsr_util.Byte_queue.read c.sendq ~off:in_flight ~len in
    emit c ~seq:c.snd_nxt ~flags:{ ack_flags with psh = len = !budget } payload;
    c.snd_nxt <- Tcp_seg.seq_add c.snd_nxt len;
    if c.rtt_probe = None then
      c.rtt_probe <- Some (c.snd_nxt, Engine.now (Host.engine c.host));
    budget := !budget - len;
    arm_timer c
  done;
  (* Send FIN once all data is queued on the wire. *)
  if
    c.fin_pending && c.fin_seq = None
    && Fbsr_util.Byte_queue.length c.sendq = Tcp_seg.seq_diff c.snd_nxt c.snd_una
  then begin
    c.fin_seq <- Some c.snd_nxt;
    emit c ~seq:c.snd_nxt ~flags:{ ack_flags with fin = true } "";
    c.snd_nxt <- Tcp_seg.seq_add c.snd_nxt 1;
    c.state <- (if c.state = Close_wait then Last_ack else Fin_wait);
    arm_timer c
  end

let destroy c =
  cancel_timer c;
  c.state <- Closed;
  Hashtbl.remove (get c.host).conns (conn_key c)

let handle_ack c (h : Tcp_seg.header) ~payload_len =
  if h.flags.ack then begin
    c.snd_wnd <- h.window;
    let ack = h.ack_seq in
    if Tcp_seg.seq_cmp ack c.snd_una > 0 && Tcp_seg.seq_cmp ack c.snd_nxt <= 0 then begin
      let advanced = Tcp_seg.seq_diff ack c.snd_una in
      (* Bytes consumed from the send queue exclude any FIN sequence slot. *)
      let data_bytes =
        match c.fin_seq with
        | Some fs when Tcp_seg.seq_cmp ack fs > 0 -> advanced - 1
        | _ -> advanced
      in
      if data_bytes > 0 then Fbsr_util.Byte_queue.drop c.sendq data_bytes;
      c.snd_una <- ack;
      c.dup_acks <- 0;
      (* Congestion window update. *)
      if c.in_recovery then begin
        if Tcp_seg.seq_cmp ack c.recover >= 0 then begin
          (* Full ack: the whole flight at loss detection is repaired. *)
          c.in_recovery <- false;
          c.cwnd <- c.ssthresh
        end
        else begin
          (* Partial ack: the next hole is also lost — retransmit it now
             (NewReno) and deflate the inflation by what was acked. *)
          c.retransmits <- c.retransmits + 1;
          c.rtt_probe <- None;
          retransmit_one c;
          c.cwnd <- max (conn_mss c) (c.cwnd - advanced + (conn_mss c))
        end
      end
      else if c.cwnd < c.ssthresh then
        (* Slow start: one MSS per ACK (bounded by bytes acked). *)
        c.cwnd <- c.cwnd + min advanced (conn_mss c)
      else
        (* Congestion avoidance: ~one MSS per RTT. *)
        c.cwnd <- c.cwnd + max 1 ((conn_mss c) * (conn_mss c) / c.cwnd);
      (* RTT sample: the probe's ack (or any later one) arrived without an
         intervening retransmission. *)
      (match c.rtt_probe with
      | Some (probe_seq, sent_at) when Tcp_seg.seq_cmp ack probe_seq >= 0 ->
          c.rtt_probe <- None;
          let rtt = Engine.now (Host.engine c.host) -. sent_at in
          (match c.srtt with
          | None ->
              c.srtt <- Some rtt;
              c.rttvar <- rtt /. 2.0
          | Some srtt ->
              c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. abs_float (srtt -. rtt));
              c.srtt <- Some ((0.875 *. srtt) +. (0.125 *. rtt)));
          let srtt = Option.value ~default:rtt c.srtt in
          c.rto <- Float.max 0.05 (Float.min 60.0 (srtt +. (4.0 *. c.rttvar) +. 0.01))
      | _ -> ());
      cancel_timer c;
      if Tcp_seg.seq_cmp c.snd_nxt c.snd_una > 0 then arm_timer c;
      (match (c.state, c.fin_seq) with
      | Fin_wait, Some fs when Tcp_seg.seq_cmp ack fs > 0 ->
          (* Our FIN is acked; if the peer already closed we are done,
             otherwise wait for its FIN. *)
          ()
      | Last_ack, Some fs when Tcp_seg.seq_cmp ack fs > 0 ->
          let cb = c.on_close in
          destroy c;
          cb ()
      | _ -> ());
      try_output c
    end
    else if
      Tcp_seg.seq_cmp ack c.snd_una = 0
      && payload_len = 0
      && (not h.flags.syn) && (not h.flags.fin)
      && Tcp_seg.seq_diff c.snd_nxt c.snd_una > 0
    then begin
      (* Duplicate ACK: the receiver got something ahead of sequence. *)
      c.dup_acks <- c.dup_acks + 1;
      if c.dup_acks = 3 && not c.in_recovery then begin
        (* Fast retransmit: resend the first unacked segment without
           waiting for the RTO, then inflate by the three segments known
           to have left the network. *)
        let flight = Tcp_seg.seq_diff c.snd_nxt c.snd_una in
        c.ssthresh <- max (flight / 2) (2 * (conn_mss c));
        c.cwnd <- c.ssthresh + (3 * (conn_mss c));
        c.in_recovery <- true;
        c.recover <- c.snd_nxt;
        c.fast_retransmits <- c.fast_retransmits + 1;
        c.retransmits <- c.retransmits + 1;
        c.rtt_probe <- None;
        retransmit_one c;
        cancel_timer c;
        arm_timer c
      end
      else if c.in_recovery then begin
        (* Each further dup ACK means another segment left the network. *)
        c.cwnd <- c.cwnd + (conn_mss c);
        try_output c
      end
    end
  end

(* Deliver any buffered ahead-of-sequence segments that now overlap
   [rcv_nxt] (partial overlaps deliver only the fresh tail). *)
let rec drain_ooo c =
  let next = ref None in
  Hashtbl.iter
    (fun seq payload ->
      if !next = None && Tcp_seg.seq_cmp seq c.rcv_nxt <= 0 then
        next := Some (seq, payload))
    c.ooo;
  match !next with
  | None -> ()
  | Some (seq, payload) ->
      Hashtbl.remove c.ooo seq;
      let len = String.length payload in
      let past = Tcp_seg.seq_diff c.rcv_nxt seq in
      if past < len then begin
        let fresh = String.sub payload past (len - past) in
        c.rcv_nxt <- Tcp_seg.seq_add c.rcv_nxt (len - past);
        c.bytes_delivered <- c.bytes_delivered + (len - past);
        c.on_receive fresh
      end;
      drain_ooo c

let deliver_data c (h : Tcp_seg.header) payload =
  let len = String.length payload in
  if len > 0 then begin
    if Tcp_seg.seq_cmp h.seq c.rcv_nxt <= 0 then begin
      (* In order, possibly overlapping already-delivered bytes (a
         retransmission crossing its ACK): deliver only the fresh tail. *)
      let past = Tcp_seg.seq_diff c.rcv_nxt h.seq in
      if past < len then begin
        let fresh = if past = 0 then payload else String.sub payload past (len - past) in
        c.rcv_nxt <- Tcp_seg.seq_add h.seq len;
        c.bytes_delivered <- c.bytes_delivered + (len - past);
        c.on_receive fresh;
        drain_ooo c
      end
    end
    else if Hashtbl.length c.ooo < max_ooo then
      Hashtbl.replace c.ooo h.seq payload;
    (* ACK unconditionally: in-order data advances the cumulative ack,
       anything else produces the duplicate ACKs that drive the sender's
       fast retransmit. *)
    emit c ~seq:c.snd_nxt ~flags:ack_flags ""
  end

let handle_fin c (h : Tcp_seg.header) payload_len =
  if h.flags.fin then begin
    let fin_seq = Tcp_seg.seq_add h.seq payload_len in
    if Tcp_seg.seq_cmp fin_seq c.rcv_nxt = 0 then begin
      c.rcv_nxt <- Tcp_seg.seq_add c.rcv_nxt 1;
      emit c ~seq:c.snd_nxt ~flags:ack_flags "";
      match c.state with
      | Established ->
          c.state <- Close_wait;
          c.on_close ()
      | Fin_wait ->
          (* Both sides closed. *)
          let cb = c.on_close in
          destroy c;
          cb ()
      | Syn_sent | Syn_received | Close_wait | Last_ack | Closed -> ()
    end
    else if Tcp_seg.seq_cmp fin_seq c.rcv_nxt < 0 then
      (* Duplicate FIN: re-ACK. *)
      emit c ~seq:c.snd_nxt ~flags:ack_flags ""
  end

let fresh_iss s =
  let iss = s.next_iss in
  s.next_iss <- Int32.add s.next_iss 64021l;
  iss

let handle host (ih : Ipv4.header) payload =
  let s = get host in
  match Tcp_seg.decode ~src:ih.src ~dst:ih.dst payload with
  | exception Tcp_seg.Bad_segment _ -> ()
  | h, data -> (
      let key = (h.dst_port, Addr.to_int ih.src, h.src_port) in
      match Hashtbl.find_opt s.conns key with
      | Some c -> (
          match c.state with
          | Syn_sent ->
              if h.flags.syn && h.flags.ack && Tcp_seg.seq_cmp h.ack_seq c.snd_nxt = 0
              then begin
                c.rcv_nxt <- Tcp_seg.seq_add h.seq 1;
                c.snd_una <- h.ack_seq;
                c.snd_wnd <- h.window;
                c.state <- Established;
                cancel_timer c;
                emit c ~seq:c.snd_nxt ~flags:ack_flags "";
                c.on_established ();
                try_output c
              end
          | Syn_received ->
              if h.flags.ack && Tcp_seg.seq_cmp h.ack_seq c.snd_nxt = 0 then begin
                c.state <- Established;
                c.snd_una <- h.ack_seq;
                c.snd_wnd <- h.window;
                cancel_timer c;
                c.on_established ();
                (* The ACK may carry data. *)
                deliver_data c h data;
                handle_fin c h (String.length data);
                try_output c
              end
          | Established | Fin_wait | Close_wait | Last_ack ->
              handle_ack c h ~payload_len:(String.length data);
              if c.state <> Closed then begin
                deliver_data c h data;
                handle_fin c h (String.length data)
              end
          | Closed -> ())
      | None -> (
          (* No connection: a SYN to a listening port creates one. *)
          match Hashtbl.find_opt s.listeners h.dst_port with
          | Some accept_cb when h.flags.syn && not h.flags.ack ->
              let iss = fresh_iss s in
              let c =
                make_conn host ~local_port:h.dst_port ~peer:ih.src ~peer_port:h.src_port
                  ~iss ~state:Syn_received ()
              in
              c.rcv_nxt <- Tcp_seg.seq_add h.seq 1;
              c.snd_wnd <- h.window;
              Hashtbl.replace s.conns (conn_key c) c;
              (* Let the application set callbacks before any data flows. *)
              accept_cb c;
              emit c ~seq:c.snd_nxt ~flags:{ Tcp_seg.no_flags with syn = true; ack = true } "";
              c.snd_nxt <- Tcp_seg.seq_add c.snd_nxt 1;
              arm_timer c
          | _ -> ()))

let install host =
  let s =
    { conns = Hashtbl.create 16; listeners = Hashtbl.create 8; next_port = 0x8000;
      next_iss = 1000l }
  in
  Host.set_extension host ~tag (E s);
  Host.register_protocol host ~protocol:Ipv4.proto_tcp handle

let listen host ~port accept_cb =
  let s = get host in
  if Hashtbl.mem s.listeners port then invalid_arg "Minitcp.listen: port in use";
  Hashtbl.replace s.listeners port accept_cb

let connect host ~dst ~dst_port =
  let s = get host in
  let rec pick tries =
    if tries > 0x4000 then failwith "Minitcp: no free ports";
    let p = s.next_port in
    s.next_port <- (if p >= 0xbfff then 0x8000 else p + 1);
    if Hashtbl.mem s.conns (p, Addr.to_int dst, dst_port) then pick (tries + 1) else p
  in
  let local_port = pick 0 in
  let iss = fresh_iss s in
  let c = make_conn host ~local_port ~peer:dst ~peer_port:dst_port ~iss ~state:Syn_sent () in
  Hashtbl.replace s.conns (conn_key c) c;
  emit c ~seq:c.snd_nxt ~flags:{ Tcp_seg.no_flags with syn = true } "";
  c.snd_nxt <- Tcp_seg.seq_add c.snd_nxt 1;
  arm_timer c;
  c

let send c data =
  if c.state = Closed || c.fin_pending then invalid_arg "Minitcp.send: connection closing";
  Fbsr_util.Byte_queue.push c.sendq data;
  try_output c

let close c =
  if not c.fin_pending && c.state <> Closed then begin
    c.fin_pending <- true;
    try_output c
  end

let abort c = if c.state <> Closed then destroy c

let on_receive c f = c.on_receive <- f
let on_established c f = c.on_established <- f
let on_close c f = c.on_close <- f

let state c = c.state
let mss c = conn_mss c
let retransmits c = c.retransmits
let fast_retransmits c = c.fast_retransmits
let timeouts c = c.timeouts
let cwnd c = c.cwnd
let ssthresh c = c.ssthresh
let rto c = c.rto
let segments_out c = c.segments_out
let local_port c = c.local_port
let peer c = (c.peer, c.peer_port)
