(* Requests in flight over the unreliable network, one per key: the MKD's
   certificate fetches (by name), the KDC baseline's session requests (by
   destination) and the Photuris baseline's handshakes (by peer).  Each
   is retransmitted with jittered exponential backoff until [complete]
   removes it and answers its waiters in arrival order, or its last
   timeout completes it with [timed_out].  A timer acts only while its
   own request is the one in the table, so it is inert once that request
   completes, even if a new request has taken the key. *)

type ('s, 'a) request = {
  state : 's;
  send : float -> unit;
  mutable waiters : ('a -> unit) list; (* newest first *)
  mutable attempts : int;
}

type ('k, 's, 'a) t = {
  engine : Engine.t;
  rng : Fbsr_util.Rng.t;
  timeout : float;
  max_attempts : int;
  timed_out : 'a;
  table : ('k, ('s, 'a) request) Fbsr_util.Pending.t;
  mutable retransmissions : int;
}

(* The retransmission schedule's fixed shape: timeout multiplier per
   retry, ceiling on the backed-off timeout, fractional +- spread. *)
let backoff = 2.0
let timeout_ceiling = 30.0
let jitter = 0.1

let create ~seed ~timeout ~max_attempts ~timed_out host =
  if timeout <= 0.0 then invalid_arg "Request: nonpositive timeout";
  if max_attempts < 1 then invalid_arg "Request: max_attempts must be >= 1";
  {
    engine = Host.engine host;
    rng = Fbsr_util.Rng.create (seed lxor Addr.to_int (Host.addr host));
    timeout;
    max_attempts;
    timed_out;
    table = Fbsr_util.Pending.create ();
    retransmissions = 0;
  }

let complete t key outcome =
  match Fbsr_util.Pending.remove t.table key with
  | None -> false
  | Some r ->
      List.iter (fun k -> k outcome) (List.rev r.waiters);
      true

(* Transmit attempt [r.attempts] and arm its timeout. *)
let rec transmit t key r =
  let base =
    Float.min timeout_ceiling
      (t.timeout *. (backoff ** float_of_int (r.attempts - 1)))
  in
  let timeout =
    base *. (1.0 +. (jitter *. ((2.0 *. Fbsr_util.Rng.uniform t.rng) -. 1.0)))
  in
  r.send timeout;
  Engine.schedule t.engine ~delay:timeout (fun () ->
      match Fbsr_util.Pending.find t.table key with
      | Some r' when r' == r ->
          if r.attempts >= t.max_attempts then ignore (complete t key t.timed_out)
          else begin
            r.attempts <- r.attempts + 1;
            t.retransmissions <- t.retransmissions + 1;
            transmit t key r
          end
      | Some _ | None -> ())

let join t key w =
  match Fbsr_util.Pending.find t.table key with
  | Some r ->
      r.waiters <- w :: r.waiters;
      true
  | None -> false

let start t key state ~send w =
  let r = { state; send; waiters = [ w ]; attempts = 1 } in
  Fbsr_util.Pending.add t.table key r;
  transmit t key r

let find t key =
  Option.map (fun r -> r.state) (Fbsr_util.Pending.find t.table key)

let retransmissions t = t.retransmissions
