(* Application workload models.

   The paper's traces came from a server-based campus workgroup LAN
   (file and compute servers plus desktops) and a lightly-loaded WWW
   server.  We model the named application mix — interactive TELNET and
   X11, sustained/periodic FTP and NFS, request/response WWW and DNS —
   as *conversations*: a list of (time offset, direction, payload size)
   events between one client port and one server port.

   Sizes and durations use the standard empirical shapes for mid-90s LAN
   traffic: interactive packets are tiny and human-paced, bulk transfers
   are MTU-limited with heavy-tailed (Pareto) object sizes, NFS is 8 KB
   block traffic with periodic activity.  The figures we must reproduce
   are distributional *shapes* (most flows short and small, a few long
   flows carrying most bytes), which emerge from this mix rather than
   being hard-coded anywhere. *)

open Fbsr_util

type app = Telnet | Ftp | Nfs | Www | X11 | Dns

let all_apps = [ Telnet; Ftp; Nfs; Www; X11; Dns ]

let app_name = function
  | Telnet -> "telnet"
  | Ftp -> "ftp"
  | Nfs -> "nfs"
  | Www -> "www"
  | X11 -> "x11"
  | Dns -> "dns"

let server_port = function
  | Telnet -> 23
  | Ftp -> 20 (* ftp-data *)
  | Nfs -> 2049
  | Www -> 80
  | X11 -> 6000
  | Dns -> 53

let protocol = function
  | Telnet | Ftp | Www | X11 -> 6 (* TCP *)
  | Nfs | Dns -> 17 (* UDP *)

type event = { at : float; c2s : bool; size : int }
type conversation = { app : app; events : event list (* sorted by [at] *) }

let mss = 1460

(* Split a transfer into MTU-sized packets arriving back-to-back at
   [rate_bps], starting at [t0]. *)
let bulk_packets ~t0 ~bytes ~rate_bps ~c2s =
  let rec go t remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let size = min mss remaining in
      let next = t +. (float_of_int (size * 8) /. rate_bps) in
      go next (remaining - size) ({ at = t; c2s; size } :: acc)
    end
  in
  go t0 bytes []

(* TELNET: a human typing.  Keystrokes (1-4 B) go c2s, echoes and screen
   updates (1-80 B) come back; bursts of activity separated by think-time
   pauses, sometimes long ones (the paper's "long TELNET session with
   large quiet periods"). *)
let telnet rng =
  let session_length = Rng.exponential rng 900.0 in
  let rec go t acc =
    if t >= session_length then List.rev acc
    else begin
      let keystroke = { at = t; c2s = true; size = Rng.int_range rng 1 4 } in
      let echo = { at = t +. 0.05; c2s = false; size = Rng.int_range rng 1 80 } in
      (* Mostly sub-second typing gaps; occasionally a long quiet period. *)
      let gap =
        if Rng.uniform rng < 0.02 then Rng.exponential rng 300.0
        else Rng.exponential rng 1.0
      in
      go (t +. 0.05 +. gap) (echo :: keystroke :: acc)
    end
  in
  { app = Telnet; events = go 0.0 [] }

(* FTP data transfer: one heavy-tailed file, server-to-client at a rate
   limited by the (10 Mb/s, shared) LAN. *)
let ftp rng =
  let file_bytes = int_of_float (Rng.pareto rng ~shape:1.2 ~scale:4096.0) in
  let file_bytes = min file_bytes 50_000_000 in
  let request = { at = 0.0; c2s = true; size = Rng.int_range rng 16 64 } in
  let data = bulk_packets ~t0:0.05 ~bytes:file_bytes ~rate_bps:4e6 ~c2s:false in
  { app = Ftp; events = request :: data }

(* NFS: long-lived periodic block traffic — bursts of 8 KB reads (request
   c2s, 6 response packets s2c) separated by activity gaps, for a long
   time.  These are the few long-lived flows that carry the bulk of the
   bytes — and because the UDP port pair is fixed for the life of the
   mount, the idle gaps are exactly what makes the THRESHOLD policy
   interesting: a small THRESHOLD splits the mount's traffic into many
   flows, a large one keeps it a single flow (Figures 13/14). *)
let nfs ?(session_length = 3600.0) rng =
  let rec go t acc =
    if t >= session_length then List.rev acc
    else begin
      let burst = Rng.int_range rng 1 4 in
      let rec requests i t acc =
        if i = burst then (t, acc)
        else begin
          let req = { at = t; c2s = true; size = Rng.int_range rng 96 160 } in
          let resp = bulk_packets ~t0:(t +. 0.003) ~bytes:8192 ~rate_bps:6e6 ~c2s:false in
          requests (i + 1) (t +. 0.02) (List.rev_append resp (req :: acc))
        end
      in
      let t', acc = requests 0 t acc in
      (* Mostly short gaps; occasionally a long quiet period (user went to
         lunch), the regime where THRESHOLD matters. *)
      let gap =
        if Rng.uniform rng < 0.12 then Rng.exponential rng 700.0
        else Rng.exponential rng 60.0
      in
      go (t' +. gap) acc
    end
  in
  { app = Nfs; events = List.rev (go 0.0 []) }

(* A DNS resolver service: one socket (fixed client port) issuing queries
   at a modest rate for the whole observation window.  Another recurring
   5-tuple with idle gaps. *)
let dns_service ~duration rng =
  let rec go t acc =
    if t >= duration then List.rev acc
    else begin
      let q = { at = t; c2s = true; size = Rng.int_range rng 24 64 } in
      let a = { at = t +. 0.02; c2s = false; size = Rng.int_range rng 64 512 } in
      let gap =
        if Rng.uniform rng < 0.1 then Rng.exponential rng 900.0
        else Rng.exponential rng 45.0
      in
      go (t +. gap) (a :: q :: acc)
    end
  in
  { app = Dns; events = List.rev (go 0.0 []) }

(* WWW: one HTTP/1.0-style hit — request c2s, heavy-tailed response s2c.
   Short conversation, fresh client port per hit. *)
let www rng =
  let request = { at = 0.0; c2s = true; size = Rng.int_range rng 128 512 } in
  let object_bytes = int_of_float (Rng.pareto rng ~shape:1.3 ~scale:1024.0) in
  let object_bytes = min object_bytes 5_000_000 in
  let response = bulk_packets ~t0:0.03 ~bytes:object_bytes ~rate_bps:4e6 ~c2s:false in
  { app = Www; events = request :: response }

(* X11: sustained interactive graphics — steadier than telnet, mid-sized
   server-to-client updates. *)
let x11 rng =
  let session_length = Rng.exponential rng 1800.0 in
  let rec go t acc =
    if t >= session_length then List.rev acc
    else begin
      let req = { at = t; c2s = true; size = Rng.int_range rng 8 64 } in
      let updates =
        List.init (Rng.int_range rng 1 4) (fun i ->
            { at = t +. 0.01 +. (0.005 *. float_of_int i);
              c2s = false;
              size = Rng.int_range rng 32 1024 })
      in
      go (t +. Rng.exponential rng 2.0) (List.rev_append updates (req :: acc))
    end
  in
  { app = X11; events = List.rev (go 0.0 []) }

(* DNS: one query, one answer. *)
let dns rng =
  {
    app = Dns;
    events =
      [
        { at = 0.0; c2s = true; size = Rng.int_range rng 24 64 };
        { at = 0.02; c2s = false; size = Rng.int_range rng 64 512 };
      ];
  }

let generate rng = function
  | Telnet -> telnet rng
  | Ftp -> ftp rng
  | Nfs -> nfs rng
  | Www -> www rng
  | X11 -> x11 rng
  | Dns -> dns rng

(* Persistent per-host services running for the whole observation. *)
let nfs_service ~duration rng = nfs ~session_length:duration rng

(* Instantiate a conversation between concrete endpoints at [start],
   producing trace records in both directions. *)
let to_records ~start ~client ~client_port ~server conv =
  let proto = protocol conv.app in
  let sport = server_port conv.app in
  List.map
    (fun e ->
      if e.c2s then
        {
          Record.time = start +. e.at;
          src = client;
          src_port = client_port;
          dst = server;
          dst_port = sport;
          protocol = proto;
          size = e.size;
        }
      else
        {
          Record.time = start +. e.at;
          src = server;
          src_port = sport;
          dst = client;
          dst_port = client_port;
          protocol = proto;
          size = e.size;
        })
    conv.events
