(* Shared engine-pair fixture: two FBS engines over a synchronous local
   resolver (certificates served from an in-process authority, no
   simulated network).  This is the setup every micro-benchmark and
   several ablations need — one enrollment per endpoint, one engine per
   side — extracted here so bench/main.ml and the experiment harness stop
   duplicating it. *)

type t = {
  src : Fbsr_fbs.Principal.t;
  dst : Fbsr_fbs.Principal.t;
  sender : Fbsr_fbs.Engine.t;
  receiver : Fbsr_fbs.Engine.t;
}

let mtu_payload = String.make 1460 'd'

let engine_pair ?(seed = 424242) ?(suite = Fbsr_fbs.Suite.paper_md5_des)
    ?(replay_window_minutes = 2) ?(strict_replay = false) ?(src = "10.9.0.1")
    ?(dst = "10.9.0.2") ?(spans = Fbsr_util.Span.none)
    ?(flowstats = fun () -> Fbsr_fbs.Flowstats.none) () =
  let rng = Fbsr_util.Rng.create seed in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub)
    in
    (Fbsr_fbs.Principal.of_string name, priv)
  in
  let s, s_priv = enroll src in
  let d, d_priv = enroll dst in
  let resolver peer k =
    match Fbsr_cert.Authority.lookup ca (Fbsr_fbs.Principal.to_string peer) with
    | Some c -> k (Ok c)
    | None -> k (Error "unknown")
  in
  let engine_for local priv alloc_seed =
    let keying =
      Fbsr_fbs.Keying.create ~local ~group ~private_value:priv
        ~ca_public:(Fbsr_cert.Authority.public ca)
        ~resolver
        ~clock:(fun () -> 0.0)
        ()
    in
    let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create alloc_seed) in
    let fam = Fbsr_fbs.Fam.create (Fbsr_fbs.Policy_five_tuple.policy ~alloc ()) in
    Fbsr_fbs.Engine.create ~suite ~replay_window_minutes ~strict_replay ~spans
      ~flowstats:(flowstats ()) ~keying ~fam ()
  in
  {
    src = s;
    dst = d;
    sender = engine_for s s_priv (seed lxor 1);
    receiver = engine_for d d_priv (seed lxor 2);
  }

(* Sharded variant: same one-CA/two-principal world, but each side is a
   Sharded.t whose per-shard engines share nothing — own Keying (own
   PVC/MKC over the shared authority), own caches, own scratch, own span
   recorder.  The per-shard masters are pre-derived synchronously here so
   no shard domain ever runs the DH exponentiation (the resolver and
   authority are only guaranteed read-only at that point). *)

type sharded = {
  sh_src : Fbsr_fbs.Principal.t;
  sh_dst : Fbsr_fbs.Principal.t;
  tx : Fbsr_fbs.Sharded.t;
  rx : Fbsr_fbs.Sharded.t;
}

let sharded_pair ?(seed = 424242) ?(suite = Fbsr_fbs.Suite.paper_md5_des)
    ?nshards ?(fst_bits = 8) ?fam_threshold ?(replay_window_minutes = 2)
    ?(strict_replay = false) ?(src = "10.9.0.1") ?(dst = "10.9.0.2")
    ?(spans = fun (_shard : int) -> Fbsr_util.Span.none)
    ?(flowstats = fun (_shard : int) -> Fbsr_fbs.Flowstats.none) () =
  let rng = Fbsr_util.Rng.create seed in
  let group = Lazy.force Fbsr_crypto.Dh.test_group in
  let ca = Fbsr_cert.Authority.create ~rng ~bits:512 () in
  let enroll name =
    let priv = Fbsr_crypto.Dh.gen_private group rng in
    let pub = Fbsr_crypto.Dh.public group priv in
    let (_ : Fbsr_cert.Certificate.t) =
      Fbsr_cert.Authority.enroll ca ~now:0.0 ~subject:name
        ~group:group.Fbsr_crypto.Dh.name
        ~public_value:(Fbsr_crypto.Dh.public_to_bytes group pub)
    in
    (Fbsr_fbs.Principal.of_string name, priv)
  in
  let s, s_priv = enroll src in
  let d, d_priv = enroll dst in
  let resolver peer k =
    match Fbsr_cert.Authority.lookup ca (Fbsr_fbs.Principal.to_string peer) with
    | Some c -> k (Ok c)
    | None -> k (Error "unknown")
  in
  let engine_for local priv peer alloc_seed shard =
    let keying =
      Fbsr_fbs.Keying.create ~local ~group ~private_value:priv
        ~ca_public:(Fbsr_cert.Authority.public ca)
        ~resolver
        ~clock:(fun () -> 0.0)
        ()
    in
    (match Fbsr_fbs.Keying.get_master_sync keying peer with
    | Ok _ -> ()
    | Error e ->
        failwith
          (Fmt.str "Fixture.sharded_pair: master derivation failed: %a"
             Fbsr_fbs.Keying.pp_error e));
    let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create alloc_seed) in
    let fam = Fbsr_fbs.Fam.create (Fbsr_fbs.Policy_five_tuple.policy ~alloc ()) in
    Fbsr_fbs.Engine.create ~suite ~replay_window_minutes ~strict_replay
      ~spans:(spans shard) ~flowstats:(flowstats shard) ~keying ~fam ()
  in
  let dispatcher_fam =
    let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create (seed lxor 3)) in
    Fbsr_fbs.Fam.create
      (Fbsr_fbs.Policy_five_tuple.policy ~fst_size:(1 lsl fst_bits)
         ?threshold:fam_threshold ~alloc ())
  in
  let tx =
    Fbsr_fbs.Sharded.create ?nshards ~confounder_seed:(seed lxor 5)
      ~engine:(fun i -> engine_for s s_priv d ((seed lxor 1) + (i * 1693)) i)
      ~fam:dispatcher_fam ()
  in
  (* The receive side never classifies, but Sharded.create still wants a
     dispatcher FAM; give it an inert one. *)
  let rx_fam =
    let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create (seed lxor 4)) in
    Fbsr_fbs.Fam.create (Fbsr_fbs.Policy_five_tuple.policy ~alloc ())
  in
  let rx =
    Fbsr_fbs.Sharded.create ?nshards ~confounder_seed:(seed lxor 6)
      ~engine:(fun i -> engine_for d d_priv s ((seed lxor 2) + (i * 1693)) i)
      ~fam:rx_fam ()
  in
  { sh_src = s; sh_dst = d; tx; rx }

let warm_pair ?seed ?(suite = Fbsr_fbs.Suite.paper_md5_des) ?(secret = true)
    ?(payload = mtu_payload) () =
  let p = engine_pair ?seed ~suite () in
  let attrs =
    Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:1000 ~dst_port:2000 ~src:p.src
      ~dst:p.dst ()
  in
  let wire =
    match
      Fbsr_fbs.Engine.send_sync p.sender ~now:60.0 ~attrs ~secret ~payload
    with
    | Ok w -> w
    | Error e ->
        failwith (Fmt.str "Fixture.warm_pair: send failed: %a" Fbsr_fbs.Engine.pp_error e)
  in
  (match Fbsr_fbs.Engine.receive_sync p.receiver ~now:60.0 ~src:p.src ~wire with
  | Ok _ -> ()
  | Error e ->
      failwith
        (Fmt.str "Fixture.warm_pair: receive failed: %a" Fbsr_fbs.Engine.pp_error e));
  (p, attrs, wire)

(* Many-flow variant for the cross-flow batching work: a seal batch pairs
   chains from *distinct* flows, so benchmarks and tests need a sender
   whose TFKC already holds that many warm entries.  Flows differ only in
   source port — same principals, same suite — which is exactly the
   five-tuple split the paper's FAM policy produces for parallel
   connections. *)
let warm_flows ?seed ?(suite = Fbsr_fbs.Suite.paper_md5_des) ?(secret = true)
    ?(payload = mtu_payload) ?(flows = 63) ?spans
    ?flowstats () =
  let p = engine_pair ?seed ~suite ?spans ?flowstats () in
  let attrs =
    Array.init flows (fun i ->
        Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:(1000 + i) ~dst_port:2000
          ~src:p.src ~dst:p.dst ())
  in
  Array.iter
    (fun a ->
      let wire =
        match Fbsr_fbs.Engine.send_sync p.sender ~now:60.0 ~attrs:a ~secret ~payload with
        | Ok w -> w
        | Error e ->
            failwith
              (Fmt.str "Fixture.warm_flows: send failed: %a" Fbsr_fbs.Engine.pp_error
                 e)
      in
      match Fbsr_fbs.Engine.receive_sync p.receiver ~now:60.0 ~src:p.src ~wire with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Fmt.str "Fixture.warm_flows: receive failed: %a" Fbsr_fbs.Engine.pp_error
               e))
    attrs;
  (p, attrs)
