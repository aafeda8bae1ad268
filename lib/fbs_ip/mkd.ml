(* The master key daemon (MKD), client side.

   Figure 5 of the paper places the MKD in user space: it serves PVC
   misses by fetching public-value certificates from the certificate
   authority over the network (through the secure flow bypass) and hands
   them back to the in-kernel FBS engine.  "PVC cache misses ... are
   extremely expensive.  It incurs at the minimum a round trip
   communication delay."

   This implementation is a UDP client whose fetches are requests in a
   [Request] table keyed by name: concurrent misses for one name share a
   fetch, which is retransmitted until answered or out of attempts.
   Because the CA round trip shares the same unreliable network as the
   datagrams themselves (requests or responses may be dropped, reordered
   or corrupted by a fault-injected link), the retransmission timer backs
   off exponentially with deterministic seeded jitter: timeout for
   attempt n is

       min(30 s, timeout * 2^(n-1)) * (1 +- 0.1)

   With the default config (2 s, 3 attempts) a fetch through a dead
   network is terminal after 2 + 4 + 8 = 14 s +- 10%.  The KDC and
   Photuris baselines retransmit their setup messages on the same
   default schedule.

   It implements the [Keying.resolver] interface, so a PVC miss suspends
   the datagram in the FBS stack until the continuation fires. *)

open Fbsr_netsim

type config = {
  timeout : float;  (* first-attempt timeout, seconds *)
  max_attempts : int;  (* total transmissions before giving up *)
}

let default_config = { timeout = 2.0; max_attempts = 3 }

type t = {
  host : Host.t;
  ca_addr : Addr.t;
  ca_port : int;
  local_port : int;
  requests : (string, unit, Fbsr_fbs.Keying.fetch_result) Request.t; (* by name *)
  mutable fetches : int;
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
  register_probe m "retransmissions" (fun () -> Request.retransmissions t.requests);
  register_probe m "failures" (fun () -> t.failures)

let send_request t name =
  Udp_stack.send t.host ~src_port:t.local_port ~dst:t.ca_addr ~dst_port:t.ca_port
    (Mkd_protocol.encode (Mkd_protocol.Request name))

(* Every transmission of a fetch (initial or retransmitted) runs under the
   fetch's own trace id, so the CA request frame — and the CA's reply,
   whose transmit happens while the id is still ambient at the CA host —
   appears in the recorders as one ["mkd.fetch"] chain, distinct from the
   datagram that suspended on it. *)
let send_request_traced t name span =
  match span with
  | Some (_, id) -> Fbsr_util.Span.with_current id (fun () -> send_request t name)
  | None -> send_request t name

(* A fetch's own bookkeeping, run before its first waiter is answered. *)
let finish t name span ~attempts result =
  if Result.is_error result then t.failures <- t.failures + 1;
  match span with
  | Some (tm, id) ->
      Fbsr_util.Span.finish t.spans tm ~id "mkd.fetch"
        ~detail:
          [
            ("name", Fbsr_util.Json.String name);
            ("attempts", Fbsr_util.Json.Int attempts);
            ("ok", Fbsr_util.Json.Bool (Result.is_ok result));
          ]
  | None -> ()

let handle_response t raw =
  match Mkd_protocol.decode raw with
  | exception Mkd_protocol.Bad_message _ -> ()
  | Mkd_protocol.Certificate cert ->
      ignore (Request.complete t.requests cert.Fbsr_cert.Certificate.subject (Ok cert))
  | Mkd_protocol.Failure { subject; reason } ->
      ignore (Request.complete t.requests subject (Error reason))
  | Mkd_protocol.Request _ -> ()

let fetch t name k =
  if not (Request.join t.requests name k) then begin
    t.fetches <- t.fetches + 1;
    let span =
      if Fbsr_util.Span.enabled t.spans then
        Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.fresh_id ())
      else None
    in
    let attempts = ref 0 in
    Request.start t.requests name ()
      ~send:(fun timeout ->
        incr attempts;
        Fbsr_util.Metrics.observe t.backoff_hist timeout;
        send_request_traced t name span)
      (fun result ->
        finish t name span ~attempts:!attempts result;
        k result)
  end

let create ?(local_port = 563) ?(config = default_config) ?metrics
    ?(spans = Fbsr_util.Span.none) ~ca_addr ~ca_port host =
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
      requests =
        Request.create ~seed:0xbac0ff ~timeout:config.timeout
          ~max_attempts:config.max_attempts
          ~timed_out:(Error "certificate fetch timed out") host;
      fetches = 0;
      failures = 0;
      backoff_hist = Fbsr_util.Metrics.histogram m "backoff_seconds";
      spans;
    }
  in
  register_metrics t m;
  Udp_stack.listen host ~port:local_port (fun ~src ~src_port:_ raw ->
      if Addr.equal src ca_addr then handle_response t raw);
  t

let resolver t : Fbsr_fbs.Keying.resolver =
 fun peer k -> fetch t (Fbsr_fbs.Principal.to_string peer) k

type stats = { fetches : int; retransmissions : int; failures : int }

let stats (t : t) =
  {
    fetches = t.fetches;
    retransmissions = Request.retransmissions t.requests;
    failures = t.failures;
  }
