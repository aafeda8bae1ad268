(** Application conversation models (TELNET, FTP, NFS, WWW, X11, DNS). *)

type app = Telnet | Ftp | Nfs | Www | X11 | Dns

val all_apps : app list
val app_name : app -> string
val protocol : app -> int

type event = { at : float; c2s : bool; size : int }
type conversation = { app : app; events : event list }

val generate : Fbsr_util.Rng.t -> app -> conversation

val nfs_service : duration:float -> Fbsr_util.Rng.t -> conversation
(** A whole-observation NFS mount: fixed ports, periodic bursts, idle
    gaps — the recurring-tuple traffic THRESHOLD acts on. *)

val dns_service : duration:float -> Fbsr_util.Rng.t -> conversation
(** A whole-observation DNS resolver socket. *)

val to_records :
  start:float ->
  client:string ->
  client_port:int ->
  server:string ->
  conversation ->
  Record.t list

val bulk_packets :
  t0:float -> bytes:int -> rate_bps:float -> c2s:bool -> event list
