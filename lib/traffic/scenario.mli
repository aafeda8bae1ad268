(** Synthetic versions of the paper's two trace environments. *)

type t = {
  records : Record.t list;
  duration : float;
  hosts : string list;
  name : string;
}

val campus_lan :
  ?seed:int ->
  ?duration:float ->
  ?desktops:int ->
  unit ->
  t
(** The workgroup LAN: desktops talking to two file servers, two compute
    servers, a WWW and a DNS server; each desktop opens 12 session
    conversations an hour. *)

val www_server :
  ?seed:int ->
  ?duration:float ->
  ?hits_per_day:float ->
  unit ->
  t
(** The lightly-hit (~10k hits/day) WWW server, with 400 clients. *)
