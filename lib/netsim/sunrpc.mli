(** Sun RPC-style request/reply over UDP (RFC 1057 shape): XIDs,
    at-least-once retries, duplicate-reply suppression — the third
    datagram service the paper's introduction names. *)

type procedure = string -> string

module Server : sig
  type t

  val install : ?port:int -> Host.t -> t
  val register : t -> prog:int -> proc:int -> procedure -> unit
  val calls_served : t -> int
end

type t

type error = Timed_out | No_such_procedure

val create : Host.t -> t
(** A client on UDP port 700.  A call is sent up to 4 times, after
    timeouts of 1, 2, 4 and 8 s (+-10% jitter), then fails with
    [Timed_out]. *)

val call :
  t ->
  server:Addr.t ->
  server_port:int ->
  prog:int ->
  proc:int ->
  string ->
  ((string, error) result -> unit) ->
  unit

val retransmissions : t -> int
val duplicate_replies : t -> int
