(* Testbed wiring: a complete simulated FBS deployment in a few calls —
   shared segment, a key-server host running the certificate authority, and
   FBS-enabled hosts with UDP/TCP stacks, Diffie-Hellman keys, enrollment
   and an MKD.  The experimental setup of Section 7.3 in a box. *)

open Fbsr_netsim

type node = {
  host : Host.t;
  stack : Stack.t;
  mkd : Mkd.t;
  private_value : Fbsr_crypto.Dh.private_value;
  spans : Fbsr_util.Span.t;
}

type t = {
  engine : Engine.t;
  medium : Medium.t;
  group : Fbsr_crypto.Dh.group;
  authority : Fbsr_cert.Authority.t;
  ca_host : Host.t;
  ca_server : Ca_server.t;
  rng : Fbsr_util.Rng.t;
  mutable nodes : node list;
  config : Stack.config option; (* base config; bypass is forced *)
  mkd_config : Mkd.config;
  faults : Link.profile option;
  link_seed : int; (* base seed; each host's link derives from it *)
  mutable links : Link.t list;
  metrics : Fbsr_util.Metrics.t;
  span_capacity : int; (* 0 = causal tracing disabled *)
  span_cost_clock : (unit -> float) option;
  sampler : Fbsr_util.Span.sampler option; (* shared across all recorders *)
  mutable recorders : Fbsr_util.Span.t list; (* one per host, newest first *)
}

(* One bounded flight recorder per host, on the shared simulated clock so
   merged cross-host timelines align.  The per-stage latency histograms of
   every recorder share the site registry's "span." scope, so
   "span.stage.<stage>" aggregates across hosts.  The adaptive sampler —
   when span sampling is on — is likewise shared: a chain's terminal span
   usually lands on a *different* host's recorder (the receiver, or a
   dropping link) than the sender-side spans it must retro-keep. *)
let new_recorder t label =
  if t.span_capacity = 0 then Fbsr_util.Span.none
  else begin
    let sp =
      Fbsr_util.Span.create ~capacity:t.span_capacity ~host:label
        ~clock:(fun () -> Engine.now t.engine)
        ?cost_clock:t.span_cost_clock ?sampler:t.sampler
        ~metrics:(Fbsr_util.Metrics.sub t.metrics "span")
        ()
    in
    t.recorders <- sp :: t.recorders;
    sp
  end

(* Attach a fault-injection link to a host when the testbed has a fault
   profile.  Each host gets its own link with a seed derived from the
   testbed seed and the host address, so runs are reproducible and
   per-host fault sequences are decorrelated. *)
let attach_link t ~spans host =
  match t.faults with
  | None -> ()
  | Some profile ->
      let link =
        Link.create ~seed:(t.link_seed lxor Addr.to_int (Host.addr host)) ~profile
          ~spans t.engine
      in
      Host.set_link host link;
      (* Every link feeds the site-wide "netsim.link.*" totals (summed
         probes) plus its own "host.<addr>.netsim.link.*" view. *)
      Link.register_metrics link (Fbsr_util.Metrics.sub t.metrics "netsim.link");
      Link.register_metrics link
        (Fbsr_util.Metrics.sub t.metrics
           ("host." ^ Addr.to_string (Host.addr host) ^ ".netsim.link"));
      t.links <- link :: t.links

let create ?(seed = 42) ?(bandwidth_bps = 10_000_000.0) ?(group_bits = 0) ?config
    ?(mkd_config = Mkd.default_config) ?faults ?metrics ?(span_capacity = 0)
    ?span_cost_clock ?(span_sample = 1) () =
  if span_capacity < 0 then invalid_arg "Testbed: negative span_capacity";
  if span_sample < 1 then invalid_arg "Testbed: span_sample must be >= 1";
  let sampler =
    if span_capacity > 0 && span_sample > 1 then
      Some (Fbsr_util.Span.sampler ~ratio:span_sample ())
    else None
  in
  let rng = Fbsr_util.Rng.create seed in
  let engine = Engine.create () in
  let medium = Medium.create ~bandwidth_bps engine in
  let group =
    (* Default: the fast 61-bit test group; ask for [group_bits] to pay for
       real group sizes (e.g. 1024 via Dh.oakley2-equivalent). *)
    if group_bits = 0 then Lazy.force Fbsr_crypto.Dh.test_group
    else if group_bits = 1024 then Lazy.force Fbsr_crypto.Dh.oakley2
    else Fbsr_crypto.Dh.generate_group ~bits:group_bits rng
  in
  let authority = Fbsr_cert.Authority.create ~rng ~bits:768 () in
  let ca_addr = Addr.of_string "10.0.0.100" in
  let ca_host = Host.create ~name:"keyserver" ~addr:ca_addr engine in
  Host.attach ca_host medium;
  Udp_stack.install ca_host;
  let ca_server = Ca_server.install ~authority ca_host in
  let t =
    {
      engine;
      medium;
      group;
      authority;
      ca_host;
      ca_server;
      rng;
      nodes = [];
      config;
      mkd_config;
      faults;
      link_seed = seed lxor 0x1a5e;
      links = [];
      metrics =
        (match metrics with Some m -> m | None -> Fbsr_util.Metrics.create ());
      span_capacity;
      span_cost_clock;
      sampler;
      recorders = [];
    }
  in
  (* The key server's egress is faulty too: certificate responses must
     survive the same network the datagrams do (that is what the MKD's
     retry/backoff is for).  Its link records transit spans into the key
     server's own recorder, so certificate round trips show up as a lane
     in the merged timeline. *)
  attach_link t ~spans:(new_recorder t (Addr.to_string ca_addr)) ca_host;
  t

let ca_addr t = Host.addr t.ca_host

let node_config t =
  let base =
    match t.config with Some c -> c | None -> Stack.default_config ()
  in
  { base with Stack.bypass = (fun a -> Addr.equal a (ca_addr t)) }

let add_host t ~name ~addr =
  let addr = Addr.of_string addr in
  let host = Host.create ~name ~addr t.engine in
  Host.attach host t.medium;
  let spans = new_recorder t (Addr.to_string addr) in
  attach_link t ~spans host;
  Udp_stack.install host;
  Minitcp.install host;
  let private_value = Fbsr_crypto.Dh.gen_private t.group t.rng in
  let public = Fbsr_crypto.Dh.public t.group private_value in
  let subject = Addr.to_string addr in
  let (_ : Fbsr_cert.Certificate.t) =
    Fbsr_cert.Authority.enroll t.authority ~now:(Engine.now t.engine) ~subject
      ~group:t.group.Fbsr_crypto.Dh.name
      ~public_value:(Fbsr_crypto.Dh.public_to_bytes t.group public)
  in
  let host_scope = "host." ^ subject in
  let mkd =
    Mkd.create ~config:t.mkd_config
      ~metrics:(Fbsr_util.Metrics.sub t.metrics "fbs_ip.mkd")
      ~spans ~ca_addr:(ca_addr t)
      ~ca_port:(Ca_server.port t.ca_server) host
  in
  Mkd.register_metrics mkd
    (Fbsr_util.Metrics.sub t.metrics (host_scope ^ ".fbs_ip.mkd"));
  let stack =
    Stack.install ~config:(node_config t) ~spans ~private_value
      ~group:t.group
      ~ca_public:(Fbsr_cert.Authority.public t.authority)
      ~resolver:(Mkd.resolver mkd) host
  in
  (* Site-wide aggregate (bare names, summed across hosts) and the
     per-host "host.<addr>." view of the same records. *)
  Stack.register_metrics stack t.metrics;
  Stack.register_metrics stack (Fbsr_util.Metrics.sub t.metrics host_scope);
  let node = { host; stack; mkd; private_value; spans } in
  t.nodes <- node :: t.nodes;
  node

(* A host with no FBS processing at all: the GENERIC configuration of
   Figure 8. *)
let add_plain_host t ~name ~addr =
  let addr = Addr.of_string addr in
  let host = Host.create ~name ~addr t.engine in
  Host.attach host t.medium;
  attach_link t ~spans:(new_recorder t (Addr.to_string addr)) host;
  Udp_stack.install host;
  Minitcp.install host;
  host

let engine t = t.engine
let medium t = t.medium
let links t = t.links

(* Aggregate fault statistics across every link in the site. *)
let link_stats t =
  let acc = Link.new_stats () in
  List.iter
    (fun l ->
      let s = Link.stats l in
      acc.Link.offered <- acc.Link.offered + s.Link.offered;
      acc.Link.delivered <- acc.Link.delivered + s.Link.delivered;
      acc.Link.dropped <- acc.Link.dropped + s.Link.dropped;
      acc.Link.duplicated <- acc.Link.duplicated + s.Link.duplicated;
      acc.Link.reordered <- acc.Link.reordered + s.Link.reordered;
      acc.Link.truncated <- acc.Link.truncated + s.Link.truncated;
      acc.Link.corrupted <- acc.Link.corrupted + s.Link.corrupted)
    t.links;
  acc
let group t = t.group
let authority t = t.authority
let metrics t = t.metrics
let span_sampler t = t.sampler
let collect_spans t = Fbsr_util.Span.collect (List.rev t.recorders)
let ca_server t = t.ca_server
let run ?until t = Engine.run ?until t.engine
let now t = Engine.now t.engine
