(* The master key daemon (MKD), client side.

   Figure 5 of the paper places the MKD in user space: it serves PVC
   misses by fetching public-value certificates from the certificate
   authority over the network (through the secure flow bypass) and hands
   them back to the in-kernel FBS engine.  "PVC cache misses ... are
   extremely expensive.  It incurs at the minimum a round trip
   communication delay."

   This implementation is a UDP client with per-name request coalescing,
   retransmission and a bounded retry budget.  Because the CA round trip
   shares the same unreliable network as the datagrams themselves (requests
   or responses may be dropped, reordered or corrupted by a fault-injected
   link), the retransmission timer backs off exponentially with
   deterministic seeded jitter: timeout for attempt n is

       min(30 s, timeout * 2^(n-1)) * (1 +- 0.1)

   With the default config (2 s, 3 attempts) a fetch through a dead
   network is terminal after 2 + 4 + 8 = 14 s +- 10%.

   It implements the [Keying.resolver] interface, so a PVC miss suspends
   the datagram in the FBS stack until the continuation fires. *)

open Fbsr_netsim

type config = {
  timeout : float;  (* first-attempt timeout, seconds *)
  max_attempts : int;  (* total transmissions before giving up *)
}

let default_config = { timeout = 2.0; max_attempts = 3 }

(* The retransmission schedule's fixed shape: timeout multiplier per
   retry, ceiling on the backed-off timeout, fractional +- spread. *)
let backoff = 2.0
let timeout_ceiling = 30.0
let jitter = 0.1

let validate_config c =
  if c.timeout <= 0.0 then invalid_arg "Mkd: nonpositive timeout";
  if c.max_attempts < 1 then invalid_arg "Mkd: max_attempts must be >= 1"

type pending = {
  name : string;
  mutable continuations : (Fbsr_fbs.Keying.fetch_result -> unit) list;
  mutable attempts : int;
  mutable generation : int; (* invalidates stale timeout events *)
  span : (Fbsr_util.Span.timer * int64) option;
      (* causal-tracing sidecar: the fetch's own trace id and begin
         timestamp, carried across retransmissions until [complete] *)
}

type t = {
  host : Host.t;
  ca_addr : Addr.t;
  ca_port : int;
  local_port : int;
  config : config;
  rng : Fbsr_util.Rng.t; (* jitter source; seeded, so runs are reproducible *)
  pending : (string, pending) Hashtbl.t;
  mutable fetches : int;
  mutable retransmissions : int;
  mutable failures : int;
  backoff_hist : Fbsr_util.Metrics.histogram; (* armed timeout spans, seconds *)
  spans : Fbsr_util.Span.t;
}

(* Counter probes, relative to the caller's scope (e.g. "fbs_ip.mkd").
   [create ?metrics] calls this on its own registry; Testbed calls it again
   per host so the same daemon shows up under both the aggregate and the
   "host.<addr>." prefixed names.  The backoff histogram is an owned cell
   and lives only in the registry given to [create]. *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  register_probe m "fetches" (fun () -> t.fetches);
  register_probe m "retransmissions" (fun () -> t.retransmissions);
  register_probe m "failures" (fun () -> t.failures)

let send_request t name =
  Udp_stack.send t.host ~src_port:t.local_port ~dst:t.ca_addr ~dst_port:t.ca_port
    (Mkd_protocol.encode (Mkd_protocol.Request name))

(* Every transmission of a fetch (initial or retransmitted) runs under the
   fetch's own trace id, so the CA request frame — and the CA's reply,
   whose transmit happens while the id is still ambient at the CA host —
   appears in the recorders as one ["mkd.fetch"] chain, distinct from the
   datagram that suspended on it. *)
let send_request_traced t p =
  match p.span with
  | Some (_, id) ->
      Fbsr_util.Span.with_current id (fun () -> send_request t p.name)
  | None -> send_request t p.name

let complete t name result =
  match Hashtbl.find_opt t.pending name with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.pending name;
      p.generation <- p.generation + 1;
      if Result.is_error result then t.failures <- t.failures + 1;
      (match p.span with
      | Some (tm, id) ->
          Fbsr_util.Span.finish t.spans tm ~id "mkd.fetch"
            ~detail:
              [
                ("name", Fbsr_util.Json.String p.name);
                ("attempts", Fbsr_util.Json.Int p.attempts);
                ("ok", Fbsr_util.Json.Bool (Result.is_ok result));
              ]
      | None -> ());
      List.iter (fun k -> k result) (List.rev p.continuations)

(* Timeout for the [attempt]-th transmission (1-based): exponential backoff
   capped at [timeout_ceiling], spread by +-jitter so coordinated fetches
   from many hosts do not retransmit in lockstep. *)
let attempt_timeout t attempt =
  let base =
    Float.min timeout_ceiling
      (t.config.timeout *. (backoff ** float_of_int (attempt - 1)))
  in
  base *. (1.0 +. (jitter *. ((2.0 *. Fbsr_util.Rng.uniform t.rng) -. 1.0)))

let rec arm_timeout t p =
  let gen = p.generation in
  let timeout = attempt_timeout t p.attempts in
  Fbsr_util.Metrics.observe t.backoff_hist timeout;
  Engine.schedule (Host.engine t.host) ~delay:timeout
    (fun () ->
      if gen = p.generation && Hashtbl.mem t.pending p.name then begin
        if p.attempts >= t.config.max_attempts then
          complete t p.name (Error "certificate fetch timed out")
        else begin
          p.attempts <- p.attempts + 1;
          t.retransmissions <- t.retransmissions + 1;
          send_request_traced t p;
          arm_timeout t p
        end
      end)

let handle_response t raw =
  match Mkd_protocol.decode raw with
  | exception Mkd_protocol.Bad_message _ -> ()
  | Mkd_protocol.Certificate cert ->
      complete t cert.Fbsr_cert.Certificate.subject (Ok cert)
  | Mkd_protocol.Failure { subject; reason } -> complete t subject (Error reason)
  | Mkd_protocol.Request _ -> ()

let fetch t name k =
  match Hashtbl.find_opt t.pending name with
  | Some p -> p.continuations <- k :: p.continuations
  | None ->
      t.fetches <- t.fetches + 1;
      let span =
        if Fbsr_util.Span.enabled t.spans then
          Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.fresh_id ())
        else None
      in
      let p =
        { name; continuations = [ k ]; attempts = 1; generation = 0; span }
      in
      Hashtbl.replace t.pending name p;
      send_request_traced t p;
      arm_timeout t p

let create ?(local_port = 563) ?(config = default_config) ?metrics
    ?(spans = Fbsr_util.Span.none) ~ca_addr ~ca_port host =
  validate_config config;
  (* Without a caller-supplied registry the histogram lives in a private
     throwaway one: the observation code stays unconditional. *)
  let m =
    match metrics with Some m -> m | None -> Fbsr_util.Metrics.create ()
  in
  let t =
    {
      host;
      ca_addr;
      ca_port;
      local_port;
      config;
      rng = Fbsr_util.Rng.create (0xbac0ff lxor Addr.to_int (Host.addr host));
      pending = Hashtbl.create 8;
      fetches = 0;
      retransmissions = 0;
      failures = 0;
      backoff_hist = Fbsr_util.Metrics.histogram m "backoff_seconds";
      spans;
    }
  in
  register_metrics t m;
  Udp_stack.listen host ~port:local_port (fun ~src ~src_port:_ raw ->
      if Addr.equal src ca_addr then handle_response t raw);
  t

let config t = t.config

let resolver t : Fbsr_fbs.Keying.resolver =
 fun peer k -> fetch t (Fbsr_fbs.Principal.to_string peer) k

type stats = { fetches : int; retransmissions : int; failures : int }

let stats (t : t) =
  { fetches = t.fetches; retransmissions = t.retransmissions; failures = t.failures }
