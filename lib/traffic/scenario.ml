(* Trace scenarios: the two environments of Section 7.3.

   [campus_lan] models the paper's "workgroup wide LAN, which has a number
   of file and compute servers in addition to individual users' desktops":
   desktops open conversations against the servers with an app mix
   dominated by short interactive/request traffic plus long NFS/FTP
   sessions.  [www_server] models the "lightly hit (about 10,000 hits per
   day) WWW server": many short conversations from many remote clients.

   Everything is driven by one seed; the same seed reproduces the same
   trace byte-for-byte. *)

open Fbsr_util

type t = {
  records : Record.t list; (* sorted by time *)
  duration : float;
  hosts : string list;
  name : string;
}

let host_ip base i = Printf.sprintf "10.1.%d.%d" ((i / 250) + base) ((i mod 250) + 1)

(* Ephemeral client ports: cycle through the BSD range, per client host —
   this reuse is what makes the Section 7.1 port-reuse discussion real. *)
type port_alloc = { mutable next : int }

let fresh_port pa =
  let p = pa.next in
  pa.next <- (if p >= 5000 then 1024 else p + 1);
  p

let sort_records records =
  List.stable_sort (fun a b -> compare a.Record.time b.Record.time) records

(* The campus LAN's servers, and the rate at which each desktop opens a
   session conversation (12 an hour). *)
let file_servers = 2
let compute_servers = 2
let conversation_rate = 12.0 /. 3600.0

let campus_lan ?(seed = 7) ?(duration = 4.0 *. 3600.0) ?(desktops = 24) () =
  let rng = Rng.create seed in
  let desktop_hosts = List.init desktops (fun i -> host_ip 0 i) in
  let file_server_hosts = List.init file_servers (fun i -> host_ip 10 i) in
  let compute_server_hosts = List.init compute_servers (fun i -> host_ip 20 i) in
  let www_host = "10.1.30.1" in
  let dns_host = "10.1.30.2" in
  let ports = Hashtbl.create 32 in
  let port_for host =
    match Hashtbl.find_opt ports host with
    | Some pa -> fresh_port pa
    | None ->
        let pa = { next = 1024 } in
        Hashtbl.replace ports host pa;
        fresh_port pa
  in
  let records = ref [] in
  let emit recs =
    List.iter (fun r -> if r.Record.time < duration then records := r :: !records) recs
  in
  (* Every desktop runs two persistent services with fixed ports for the
     whole observation window: an NFS mount against a file server and a
     DNS resolver socket.  Their periodic activity with idle gaps is the
     recurring-5-tuple traffic the THRESHOLD policy splits or merges
     (Figures 13/14), and NFS supplies the heavy byte tail (Figure 9b). *)
  List.iteri
    (fun i desktop ->
      let file_server = List.nth file_server_hosts (i mod file_servers) in
      let start = Rng.float rng 60.0 in
      emit
        (Workload.to_records ~start ~client:desktop ~client_port:(port_for desktop)
           ~server:file_server
           (Workload.nfs_service ~duration rng));
      emit
        (Workload.to_records ~start:(Rng.float rng 60.0) ~client:desktop
           ~client_port:(port_for desktop) ~server:dns_host
           (Workload.dns_service ~duration rng)))
    desktop_hosts;
  (* On top, each desktop opens session conversations (fresh client port
     each) as a Poisson process: the short WWW hits that dominate flow
     counts, interactive TELNET/X11 sessions, occasional FTP transfers. *)
  let app_mix =
    [
      (0.50, Workload.Www);
      (0.22, Workload.Telnet);
      (0.16, Workload.X11);
      (0.12, Workload.Ftp);
    ]
  in
  let server_for app =
    match (app : Workload.app) with
    | Workload.Nfs | Workload.Ftp -> Rng.choose rng (Array.of_list file_server_hosts)
    | Workload.Telnet | Workload.X11 ->
        Rng.choose rng (Array.of_list compute_server_hosts)
    | Workload.Www -> www_host
    | Workload.Dns -> dns_host
  in
  List.iter
    (fun desktop ->
      let rec go t =
        let t = t +. Rng.exponential rng (1.0 /. conversation_rate) in
        if t < duration then begin
          let app = Rng.choose_weighted rng app_mix in
          let conv = Workload.generate rng app in
          let server = server_for app in
          emit
            (Workload.to_records ~start:t ~client:desktop ~client_port:(port_for desktop)
               ~server conv);
          go t
        end
      in
      go 0.0)
    desktop_hosts;
  {
    records = sort_records !records;
    duration;
    hosts =
      desktop_hosts @ file_server_hosts @ compute_server_hosts @ [ www_host; dns_host ];
    name = "campus-lan";
  }

let www_server ?(seed = 11) ?(duration = 4.0 *. 3600.0) ?(hits_per_day = 10_000.0) () =
  let rng = Rng.create seed in
  let server = "10.2.0.1" in
  let clients = Array.init 400 (fun i -> host_ip 100 i) in
  let ports = Hashtbl.create 64 in
  let port_for host =
    match Hashtbl.find_opt ports host with
    | Some pa -> fresh_port pa
    | None ->
        let pa = { next = 1024 } in
        Hashtbl.replace ports host pa;
        fresh_port pa
  in
  let rate = hits_per_day /. 86_400.0 in
  let records = ref [] in
  let rec go t =
    let t = t +. Rng.exponential rng (1.0 /. rate) in
    if t < duration then begin
      let client = Rng.choose rng clients in
      let conv = Workload.generate rng Workload.Www in
      let recs =
        Workload.to_records ~start:t ~client ~client_port:(port_for client) ~server conv
      in
      List.iter
        (fun r -> if r.Record.time < duration then records := r :: !records)
        recs;
      go t
    end
  in
  go 0.0;
  {
    records = sort_records !records;
    duration;
    hosts = server :: Array.to_list clients;
    name = "www-server";
  }
