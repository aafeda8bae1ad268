(* A shared network segment — the simulated stand-in for the paper's
   "dedicated 10M Ethernet segment".

   The medium is half-duplex with a single serialization resource: a frame
   occupies the wire for (size + framing overhead) * 8 / bandwidth seconds
   starting no earlier than the previous frame finished, then propagates to
   the destination station.  The medium injects no faults: drop,
   duplicate, reorder, truncate and corrupt are the job of a
   fault-injection {!Link} on the sending host.  Sniffer taps observe
   every frame at transmit time, exactly like tcpdump on the paper's
   LAN. *)

type station = { addr : Addr.t; deliver : string -> unit }

type t = {
  engine : Engine.t;
  bandwidth_bps : float;
  mutable busy_until : float;
  mutable stations : station list;
  mutable sniffers : (float -> string -> unit) list;
  mutable frames_sent : int;
  mutable frames_dropped : int;
  mutable bytes_sent : int;
}

(* 8 B preamble + 14 B header + 4 B FCS + 12 B interframe gap. *)
let ethernet_overhead = 38
let ethernet_min_payload = 46

(* One LAN segment's propagation delay, seconds. *)
let propagation = 5e-6

let create ?(bandwidth_bps = 10_000_000.0) engine =
  {
    engine;
    bandwidth_bps;
    busy_until = 0.0;
    stations = [];
    sniffers = [];
    frames_sent = 0;
    frames_dropped = 0;
    bytes_sent = 0;
  }

let attach t ~addr ~deliver = t.stations <- { addr; deliver } :: t.stations

let add_sniffer t f = t.sniffers <- f :: t.sniffers

let station_for t addr =
  List.find_opt (fun s -> Addr.equal s.addr addr) t.stations

(* Wire time for a frame of [bytes] IP bytes, including framing overhead
   and the Ethernet minimum-frame rule. *)
let tx_time t bytes =
  let payload = max bytes ethernet_min_payload in
  float_of_int ((payload + ethernet_overhead) * 8) /. t.bandwidth_bps

let transmit t ~dst (raw : string) =
  let now = Engine.now t.engine in
  let start = Float.max now t.busy_until in
  let tx = tx_time t (String.length raw) in
  t.busy_until <- start +. tx;
  t.frames_sent <- t.frames_sent + 1;
  t.bytes_sent <- t.bytes_sent + String.length raw;
  let stamp = start in
  List.iter (fun sn -> sn stamp raw) t.sniffers;
  (* Delivery metadata for causal tracing: the sender's ambient trace id
     is captured here and restored around the delivery callback, so the
     receiving stack processes the frame under the trace that sent it.
     The frame itself carries no trace bytes. *)
  let tid = Fbsr_util.Span.current () in
  match station_for t dst with
  | None -> t.frames_dropped <- t.frames_dropped + 1
  | Some s ->
      let arrival = t.busy_until +. propagation -. now in
      Engine.schedule t.engine ~delay:arrival (fun () ->
          if Int64.equal tid 0L then s.deliver raw
          else Fbsr_util.Span.with_current tid (fun () -> s.deliver raw))

type stats = { frames : int; dropped : int; bytes : int }

let stats t = { frames = t.frames_sent; dropped = t.frames_dropped; bytes = t.bytes_sent }

let utilization t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else
    float_of_int ((t.bytes_sent + (t.frames_sent * ethernet_overhead)) * 8)
    /. t.bandwidth_bps /. elapsed
