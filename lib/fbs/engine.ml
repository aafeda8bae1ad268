(* FBS protocol processing — FBSSend()/FBSReceive() of Figure 4, with the
   cache fast path of Figure 6.

   The engine is deliberately layer-independent (Section 3): it consumes and
   produces opaque byte strings plus the attributes the FAM policy needs,
   and assumes only an insecure datagram transport underneath.  The IP
   mapping in [Fbsr_fbs_ip] embeds its output between the IPv4 header and
   the transport payload; tests drive it directly.  There is one send path
   and one receive path; an optional cross-flow batch only decides where
   the body transform runs.

   One pseudo-code ambiguity resolved: Figure 4 computes the MAC over
   P.body *before* encryption on the send side (S6 precedes S8-9) but shows
   verification *before* decryption on the receive side (R7 precedes
   R10-11).  Both cannot hold with MAC-over-plaintext, so we follow the
   send side — the MAC covers the plaintext body — and the receiver
   decrypts first, then verifies.  DESIGN.md records this choice. *)

(* Why a received datagram was refused, one cause per refusal of Figure
   4's receiver.  [cause_index] is its slot in the counters' [drops] and
   in [cause_names], its name in metrics and span outcomes (spelled once
   in [drop_outcomes], so a traced drop allocates no string): a new cause
   is a constructor, an index and a name, with no edit at any exit.
   Defined before [error], whose [Stale] and [Duplicate] win wherever
   the type is not known. *)
type cause = Header | Stale | Duplicate | Keying | Mac | Decrypt

let causes = [ Header; Stale; Duplicate; Keying; Mac; Decrypt ]

let cause_index (c : cause) =
  match c with Header -> 0 | Stale -> 1 | Duplicate -> 2 | Keying -> 3 | Mac -> 4 | Decrypt -> 5

let cause_names = [| "header"; "stale"; "duplicate"; "keying"; "mac"; "decrypt" |]
let cause_name c = cause_names.(cause_index c)
let drop_outcomes = Array.map Fbsr_util.Span.drop_outcome cause_names

type error =
  | Header_error of Header.error
  | Stale of { timestamp : int; now_minutes : int }
  | Duplicate
  | Keying_error of Keying.error
  | Bad_mac
  | Decrypt_error

let pp_error ppf = function
  | Header_error Header.Truncated -> Fmt.string ppf "truncated header"
  | Header_error (Header.Unknown_suite id) -> Fmt.pf ppf "unknown suite %d" id
  | Header_error (Header.Bad_flags f) -> Fmt.pf ppf "reserved flag bits set (%#x)" f
  | Stale { timestamp; now_minutes } ->
      Fmt.pf ppf "stale timestamp %d (now %d)" timestamp now_minutes
  | Duplicate -> Fmt.string ppf "duplicate datagram"
  | Keying_error e -> Keying.pp_error ppf e
  | Bad_mac -> Fmt.string ppf "MAC verification failed"
  | Decrypt_error -> Fmt.string ppf "decryption failed"

let cause_of_error (e : error) : cause =
  match e with
  | Header_error _ -> Header
  | Stale _ -> Stale
  | Duplicate -> Duplicate
  | Keying_error _ -> Keying
  | Bad_mac -> Mac
  | Decrypt_error -> Decrypt

(* Drops are counted by cause so graceful degradation is observable: the
   split between MAC failures (corruption or forgery), duplicates
   (replay) and keying errors (certificate fetch lost) tells the operator
   *why* datagrams are refused.  The record lives in [Armor] (armors
   account their work on it directly) and is re-exported here field for
   field; engine.mli documents every field. *)
type counters = Armor.counters = {
  mutable sends : int;
  mutable receives : int;
  mutable accepted : int;
  mutable flow_key_computations : int;
  mutable flow_key_recoveries : int;
  mutable macs_computed : int;
  mutable encryptions : int;
  mutable decryptions : int;
  drops : int array;
  mutable bytes_copied : int;
  mutable datapath_allocs : int;
  mutable keysched_hits : int;
  mutable keysched_misses : int;
  mutable mac_midstate_hits : int;
  mutable mac_midstate_misses : int;
  mutable rx_batch_deferred : int;
  mutable rx_batch_flushes : int;
}

let drop_count c cause = c.drops.(cause_index cause)
let drops_by_cause c = List.map (fun cause -> (cause_name cause, drop_count c cause)) causes
let drops c = List.fold_left (fun acc cause -> acc + drop_count c cause) 0 causes
let drop_metric cause = "fbs.engine.drops." ^ cause_name cause

(* Receive-side demultiplexing record: the receiver "passively
   demultiplexes a datagram, based on its flow assignment, into the
   individual flows" — this is the per-flow view it accumulates.  Soft
   state, bounded by the cache it lives in. *)
type inbound_flow = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_seen : float;
  mutable last_seen : float;
}

(* A TFKC/RFKC entry: the derived flow key plus the expanded key
   schedules for whatever cipher/MAC the suite uses, populated lazily on
   first use.  The schedules are owned by the entry — they share its
   lifetime, so cache eviction or invalidation drops key material and
   schedules together and there is no separate invalidation protocol.
   The record lives in [Armor] so armor instances can stash their own
   per-flow state alongside the shared schedules. *)
type flow_entry = Armor.flow_state

let flow_entry_of_key = Armor.flow_state_of_key
let flow_entry_key (e : flow_entry) = e.Armor.fk

type t = {
  keying : Keying.t;
  fam : Fam.t;
  suite : Suite.t;
  armor : Armor.armor; (* the suite's driver, from the registry *)
  (* Armor-call context: the counters record (shared with [counters]
     below) plus the reusable per-engine scratch for the zero-copy
     datapath (MAC prelude, duplicated-confounder IV).  Scratch is read
     through [Bytes.unsafe_to_string] views consumed before the next
     refill, so no datagram ever observes another's bytes. *)
  actx : Armor.ctx;
  tfkc : (int64 * string * string, flow_entry) Cache.t; (* (sfl, peer, local) *)
  rfkc : (int64 * string * string, flow_entry) Cache.t;
  inbound : (int64 * string, inbound_flow) Cache.t; (* (sfl, peer) *)
  replay : Replay.t;
  confounder_gen : Fbsr_util.Lcg.t;
  counters : counters;
  spans : Fbsr_util.Span.t;
  (* Per-flow heavy-hitter attribution (sfl-keyed sketches); [Flowstats.none]
     keeps the datapath at one branch per quantity. *)
  flowstats : Flowstats.t;
}

let triple_hash (sfl, peer, local) =
  let open Fbsr_util.Crc32 in
  let h = update_int64 0 sfl in
  let h = update h peer 0 (String.length peer) in
  update h local 0 (String.length local)

let triple_equal (a1, b1, c1) (a2, b2, c2) =
  Int64.equal a1 a2 && String.equal b1 b2 && String.equal c1 c2

let create ?(suite = Suite.paper_md5_des) ?(tfkc_sets = 128) ?(rfkc_sets = 128)
    ?(replay_window_minutes = 2) ?(strict_replay = false)
    ?(spans = Fbsr_util.Span.none) ?(flowstats = Flowstats.none) ~keying ~fam () =
  (* Force the built-in armor manifest before consulting the registry:
     linking semantics drop unreferenced archive members, so the
     instances' registrations must be reachable from here. *)
  Armors.ensure ();
  let counters =
    {
      sends = 0;
      receives = 0;
      accepted = 0;
      flow_key_computations = 0;
      flow_key_recoveries = 0;
      macs_computed = 0;
      encryptions = 0;
      decryptions = 0;
      drops = Array.make (Array.length cause_names) 0;
      bytes_copied = 0;
      datapath_allocs = 0;
      keysched_hits = 0;
      keysched_misses = 0;
      mac_midstate_hits = 0;
      mac_midstate_misses = 0;
      rx_batch_deferred = 0;
      rx_batch_flushes = 0;
    }
  in
  {
    keying;
    fam;
    suite;
    armor = Armor.of_suite suite;
    actx = Armor.make_ctx counters;
    (* Figure 6's flow-key caches are direct-mapped tables. *)
    tfkc =
      Cache.create ~assoc:1 ~sets:tfkc_sets ~hash:triple_hash
        ~equal:triple_equal ~name:"tfkc" ();
    rfkc =
      Cache.create ~assoc:1 ~sets:rfkc_sets ~hash:triple_hash
        ~equal:triple_equal ~name:"rfkc" ();
    inbound =
      Cache.create ~assoc:2 ~classify:false ~sets:rfkc_sets
        ~hash:(fun (sfl, peer) ->
          Fbsr_util.Crc32.update (Fbsr_util.Crc32.update_int64 0 sfl) peer 0
            (String.length peer))
        ~equal:(fun (s1, p1) (s2, p2) -> Int64.equal s1 s2 && String.equal p1 p2)
        ~name:"inbound" ();
    replay = Replay.create ~window_minutes:replay_window_minutes ~strict:strict_replay ();
    confounder_gen = Fbsr_util.Lcg.create 0x5eed;
    spans;
    flowstats;
    counters;
  }

let local t = Keying.local t.keying
let suite t = t.suite
let fam t = t.fam
let keying t = t.keying
let tfkc t = t.tfkc
let rfkc t = t.rfkc
let replay t = t.replay
let counters t = t.counters
let spans t = t.spans
let flowstats t = t.flowstats

(* Register the whole fbs.* subtree for this engine: its own counters
   (including drops.<cause>), all five cache levels, replay and FAM
   bookkeeping, and the keying counters.  Names are relative to the
   registry's scope, so the root registry yields "fbs.engine.sends" while
   [Metrics.sub m "host.10.0.0.1"] yields a per-host view; registering
   several engines on one registry sums them (probes accumulate). *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  let e = sub m "fbs.engine" in
  let c = t.counters in
  register_probe e "sends" (fun () -> c.sends);
  register_probe e "receives" (fun () -> c.receives);
  register_probe e "accepted" (fun () -> c.accepted);
  register_probe e "flow_key_computations" (fun () -> c.flow_key_computations);
  register_probe e "flow_key_recoveries" (fun () -> c.flow_key_recoveries);
  register_probe e "macs_computed" (fun () -> c.macs_computed);
  register_probe e "encryptions" (fun () -> c.encryptions);
  register_probe e "decryptions" (fun () -> c.decryptions);
  List.iter
    (fun cause -> register_probe m (drop_metric cause) (fun () -> drop_count c cause))
    causes;
  register_probe e "drops.total" (fun () -> drops c);
  register_probe e "datapath.bytes_copied" (fun () -> c.bytes_copied);
  register_probe e "datapath.allocs" (fun () -> c.datapath_allocs);
  register_probe e "keysched.hits" (fun () -> c.keysched_hits);
  register_probe e "keysched.misses" (fun () -> c.keysched_misses);
  register_probe e "macmid.hits" (fun () -> c.mac_midstate_hits);
  register_probe e "macmid.misses" (fun () -> c.mac_midstate_misses);
  register_probe e "rxbatch.deferred" (fun () -> c.rx_batch_deferred);
  register_probe e "rxbatch.flushes" (fun () -> c.rx_batch_flushes);
  (* Per-datagram views of the same counters: the zero-copy invariant in
     observable form (~1 alloc and ~0 extra copies per datagram).  Ratio
     probes, not float probes: several engines registered under one name
     (the sharded dispatcher's aggregate view, or one engine registered
     at the root and under a scope) must fold the underlying tallies and
     report the true combined ratio, not the sum of per-engine ratios. *)
  let datagrams () = float_of_int (c.sends + c.receives) in
  register_probe_ratio e "datapath.bytes_copied_per_datagram" (fun () ->
      (float_of_int c.bytes_copied, datagrams ()));
  register_probe_ratio e "datapath.allocs_per_datagram" (fun () ->
      (float_of_int c.datapath_allocs, datagrams ()));
  Cache.register_metrics t.tfkc (sub m "fbs.cache.tfkc");
  Cache.register_metrics t.rfkc (sub m "fbs.cache.rfkc");
  Cache.register_metrics t.inbound (sub m "fbs.cache.inbound");
  Cache.register_metrics (Keying.pvc t.keying) (sub m "fbs.cache.pvc");
  Cache.register_metrics (Keying.mkc t.keying) (sub m "fbs.cache.mkc");
  Replay.register_metrics t.replay (sub m "fbs.replay");
  Fam.register_metrics t.fam (sub m "fbs.fam");
  Keying.register_metrics t.keying (sub m "fbs.keying")

(* Snapshot of the inbound flows currently tracked: (sfl, peer, stats). *)
let inbound_flows t =
  Cache.fold t.inbound
    (fun (sfl, peer) flow acc -> (Sfl.of_int64 sfl, Principal.of_string peer, flow) :: acc)
    []

let track_inbound t ~now ~sfl ~peer ~bytes =
  let key = (Sfl.to_int64 sfl, Principal.to_string peer) in
  match Cache.peek t.inbound key with
  | Some flow ->
      flow.packets <- flow.packets + 1;
      flow.bytes <- flow.bytes + bytes;
      flow.last_seen <- now
  | None ->
      Cache.insert t.inbound key
        { packets = 1; bytes; first_seen = now; last_seen = now }

(* Obtain the flow key for (sfl, peer), using the given cache (TFKC on
   send, RFKC on receive).  CPS because the master key may need a
   certificate fetch. *)
(* Span bookkeeping for key derivation: the timer plus the trace id
   captured at stage entry (the continuation may resume in a later
   scheduler event, when the ambient id belongs to someone else). *)
let finish_derive t (tm : (Fbsr_util.Span.timer * int64) option) ~cache ~hit
    ~revisit ~master =
  match tm with
  | None -> ()
  | Some (tm, id) ->
      Fbsr_util.Span.finish t.spans tm ~id "keying.derive"
        ~detail:
          [
            ("cache", Fbsr_util.Json.String cache);
            ("hit", Fbsr_util.Json.Bool hit);
            ("master", Fbsr_util.Json.String master);
            ("recovered", Fbsr_util.Json.Bool revisit);
          ]

let flow_key_via t cache ~sfl ~peer ~src ~dst (k : (flow_entry, error) result -> unit) =
  let key = (Sfl.to_int64 sfl, Principal.to_string peer, Principal.to_string (local t)) in
  let tm =
    if Fbsr_util.Span.enabled t.spans then
      Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.current ())
    else None
  in
  let stats = Cache.stats cache in
  let cold_before = stats.Cache.misses_cold in
  match Cache.find cache key with
  | Some entry ->
      finish_derive t tm ~cache:(Cache.name cache) ~hit:true ~revisit:false
        ~master:"cached";
      k (Ok entry)
  | None ->
      (* A miss that is not cold (TFKC and RFKC always classify) is on a
         key this cache has seen before: its entry was evicted or
         invalidated and we are recovering by recomputation, the
         soft-state guarantee at work. *)
      let revisit = stats.Cache.misses_cold = cold_before in
      Keying.get_master t.keying peer (function
        | Error e ->
            finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
              ~master:"error";
            k (Error (Keying_error e))
        | Ok master ->
            t.counters.flow_key_computations <- t.counters.flow_key_computations + 1;
            if revisit then begin
              t.counters.flow_key_recoveries <- t.counters.flow_key_recoveries + 1;
              (* Soft-state degradation: the flow's key material had to be
                 recomputed after eviction — attribute it to the flow. *)
              if Flowstats.enabled t.flowstats then
                Fbsr_util.Sketch.observe t.flowstats.Flowstats.degraded (Sfl.to_int64 sfl) 1
            end;
            let fk =
              Keying.flow_key ~hash:t.suite.Suite.kdf_hash ~sfl ~master ~src ~dst
            in
            let entry = flow_entry_of_key fk in
            Cache.insert cache key entry;
            finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
              ~master:(Keying.last_resolution t.keying);
            k (Ok entry))

(* Cross-flow batching — the feed for the bitsliced DES kernel: a queue
   bound to one engine, with a lane per direction.  CBC serializes blocks
   {e within} a flow but not {e across} flows, and CBC decryption has no
   cross-block dependency at all, so a secret datagram whose armor has a
   batched kernel parks its body transform here: the seal lane holds fully
   assembled wires whose encryption is pending, the open lane holds
   frames that passed the receive prologue and whose decryption (and
   hence MAC verify) is pending.  [flush] runs each lane's jobs in
   lockstep and only then completes the datagrams, in enqueue order, so
   a caller never observes a half-sealed or half-opened datagram.
   Everything else seals and opens inline, on the very same call. *)
module Batch = struct
  type engine = t

  (* A parked datagram: its pending kernel job, and what finishes it once
     the job has run — the deferred seal span and the sender's
     continuation on the seal lane; MAC verify and the verdict on the
     open lane. *)
  type pending = { job : Armor.job; complete : unit -> unit }

  type t = {
    engine : engine;
    threshold : int;
    capacity : int;
    run_seal : threshold:int -> Armor.job array -> int * int;
    run_open : threshold:int -> Armor.job array -> int * int;
    seals : pending Queue.t;
    opens : pending Queue.t;
    mutable on_park : unit -> unit;
        (* fires on every enqueue that leaves the datagram parked (no
           capacity flush) — including late enqueues from a resumed keying
           continuation, which the caller cannot observe synchronously *)
  }

  (* Only reached for an empty lane: jobs enqueue through the armor's ops. *)
  let no_kernel ~threshold:_ (_ : Armor.job array) = (0, 0)

  let create ?(threshold = 24) ?(capacity = Fbsr_crypto.Des_bitslice.lanes)
      (engine : engine) =
    if capacity < 1 then invalid_arg "Engine.Batch.create: capacity < 1";
    let module A = (val engine.armor : Armor.S) in
    {
      engine;
      threshold;
      capacity;
      run_seal = (match A.batch with Some ops -> ops.Armor.run | None -> no_kernel);
      run_open =
        (match A.batch_rx with Some ops -> ops.Armor.run_rx | None -> no_kernel);
      seals = Queue.create ();
      opens = Queue.create ();
      on_park = ignore;
    }

  let set_on_park b f = b.on_park <- f

  (* A batch runs its own engine's armor kernels and counts on its own
     engine: refuse one handed to another engine. *)
  let check_owner t = function
    | Some b when b.engine != t -> invalid_arg "Engine: batch bound to another engine"
    | _ -> ()

  let pending b = Queue.length b.seals + Queue.length b.opens

  (* Run every job of one lane (bitsliced when at least [threshold] jobs
     share a kernel group, per-datagram otherwise), then complete the
     datagrams in enqueue order.  Returns the kernel's
     (bitsliced_blocks, scalar_blocks) split. *)
  let drain b q run =
    if Queue.is_empty q then (0, 0)
    else begin
      (* Explicit drain: [Array.init]'s evaluation order is unspecified,
         and delivery order must be enqueue order. *)
      let ps = Array.make (Queue.length q) (Queue.peek q) in
      for i = 0 to Array.length ps - 1 do
        ps.(i) <- Queue.pop q
      done;
      let counts = run ~threshold:b.threshold (Array.map (fun p -> p.job) ps) in
      Array.iter (fun p -> p.complete ()) ps;
      counts
    end

  let flush b =
    let c = b.engine.counters in
    if not (Queue.is_empty b.opens) then
      c.rx_batch_flushes <- c.rx_batch_flushes + 1;
    let bs, ss = drain b b.seals b.run_seal in
    let bo, so = drain b b.opens b.run_open in
    (bs + bo, ss + so)

  (* Park a datagram in lane [q]: flush when the lane fills, else tell the
     owner.  When the keying layer suspended, this runs in the resumed
     continuation's event, after the caller's synchronous code — without
     the hook nothing would arm a flush and the datagram could park
     forever. *)
  let enqueue b q p =
    Queue.add p q;
    if Queue.length q >= b.capacity then ignore (flush b : int * int)
    else b.on_park ()
end

(* What a seal does beyond writing the payload: whether the body is
   secret, the batch its transform may park in, and a caller-drawn
   confounder.  The send path carries this as one value across the
   keying step, and the two inline plans are shared constants, so an
   unbatched send captures and allocates no more than a bare [secret]
   flag would. *)
type seal_plan = { secret : bool; batch : Batch.t option; confounder : int option }

let plain = { secret = false; batch = None; confounder = None }
let secret_inline = { plain with secret = true }

let seal_plan ?batch ?confounder secret =
  match (batch, confounder) with
  | None, None -> if secret then secret_inline else plain
  | _ -> { secret; batch; confounder }

(* The ["engine.seal"] span's detail: wire size, secrecy, and the
   key-schedule and MAC-midstate cache deltas since the seal began (the
   counters were [ksh0] ... at entry), for cost attribution. *)
let seal_detail t ~batched ~secret ~wire ~ksh0 ~ksm0 ~mmh0 ~mmm0 =
  let c = t.counters in
  let deltas =
    [
      ("keysched_hits", Fbsr_util.Json.Int (c.keysched_hits - ksh0));
      ("keysched_misses", Fbsr_util.Json.Int (c.keysched_misses - ksm0));
      ("macmid_hits", Fbsr_util.Json.Int (c.mac_midstate_hits - mmh0));
      ("macmid_misses", Fbsr_util.Json.Int (c.mac_midstate_misses - mmm0));
    ]
  in
  ("bytes", Fbsr_util.Json.Int (String.length wire))
  :: ("secret", Fbsr_util.Json.Bool secret)
  :: (if batched then ("batched", Fbsr_util.Json.Bool true) :: deltas else deltas)

(* Steps S4-S10 of Figure 4, given the flow entry: confounder, timestamp,
   MAC, optional encryption, header insertion.  The wire goes to [k]:
   at once when the seal completes inline, from the flush when the
   datagram parks in the plan's batch.

   Zero-copy assembly: the wire size is known up front (fixed header +
   suite MAC length + armor body length), so header, MAC and body are
   written into one exact-capacity buffer which [finalize] steals — one
   allocation per sealed datagram.  Everything algorithm-specific — MAC
   construction, body sizing, the body transform itself — is the armor's
   business; the engine only assembles.

   With a [batch], a secret datagram whose armor has a batch kernel
   leaves its body to the seal lane: the armor reserves the body region
   and returns the pending job that will fill it (accounting the
   encryption as the inline path would).  The wire is finalized with the
   region still unwritten and ALIASES the job's destination buffer
   ([finalize] shares storage at exact capacity), so the ciphertext lands
   in the already-issued string when the lane runs — which is why the
   continuation only fires from the flush.  The seal span finishes there
   too, covering queue residence: the real seal latency under batching.

   A plan's [confounder] overrides the engine's generator: the sharded
   dispatcher pre-draws confounders in input order so the wire bytes are
   independent of the shard count. *)
let seal_entry t { secret; batch; confounder } ~now ~sfl ~entry ~payload
    (k : (string, error) result -> unit) =
  let module A = (val t.armor : Armor.S) in
  let stm =
    if Fbsr_util.Span.enabled t.spans then Some (Fbsr_util.Span.start t.spans)
    else None
  in
  let ksh0 = t.counters.keysched_hits and ksm0 = t.counters.keysched_misses in
  let mmh0 = t.counters.mac_midstate_hits
  and mmm0 = t.counters.mac_midstate_misses in
  let confounder =
    match confounder with
    | Some c -> c
    | None -> Fbsr_util.Lcg.next_u32 t.confounder_gen
  in
  let timestamp = Replay.minutes_of_seconds now in
  let payload_len = String.length payload in
  if Flowstats.enabled t.flowstats then begin
    let key = Sfl.to_int64 sfl in
    Fbsr_util.Sketch.observe t.flowstats.Flowstats.datagrams key 1;
    Fbsr_util.Sketch.observe t.flowstats.Flowstats.bytes key payload_len
  end;
  let mac =
    A.seal_mac t.actx entry ~secret ~confounder ~timestamp
      ~payload:(Fbsr_util.Slice.of_string payload)
  in
  let body_len = A.sealed_body_len ~secret payload_len in
  let w =
    Fbsr_util.Byte_writer.create
      ~capacity:(Header.fixed_size + t.suite.Suite.mac_length + body_len)
      ()
  in
  t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
  Header.encode_fields_into w ~sfl ~suite:t.suite ~secret ~confounder ~timestamp;
  (* Writing the MAC through [substring] also performs the suite's
     truncation (Section 5.3) without an intermediate string. *)
  Fbsr_util.Byte_writer.substring w mac 0 t.suite.Suite.mac_length;
  match (batch, A.batch) with
  | Some b, Some ops when secret ->
      let job = ops.Armor.defer t.actx entry ~confounder ~payload w in
      let wire = Fbsr_util.Byte_writer.finalize w in
      (* The flush runs under another event's ambient id: capture ours. *)
      let id, detail =
        match stm with
        | Some _ ->
            ( Fbsr_util.Span.current (),
              seal_detail t ~batched:true ~secret ~wire ~ksh0 ~ksm0 ~mmh0 ~mmm0 )
        | None -> (0L, [])
      in
      Batch.enqueue b b.Batch.seals
        {
          Batch.job;
          complete =
            (fun () ->
              match stm with
              | Some tm ->
                  Fbsr_util.Span.finish t.spans tm ~id "engine.seal" ~detail;
                  Fbsr_util.Span.with_current id (fun () -> k (Ok wire))
              | None -> k (Ok wire));
        }
  | _ ->
      A.seal_body t.actx entry ~secret ~confounder ~payload w;
      let wire = Fbsr_util.Byte_writer.finalize w in
      (match stm with
      | Some tm ->
          Fbsr_util.Span.finish t.spans tm "engine.seal"
            ~detail:
              (seal_detail t ~batched:false ~secret ~wire ~ksh0 ~ksm0 ~mmh0 ~mmm0)
      | None -> ());
      k (Ok wire)

(* Each datagram entering the send path opens a new trace: a fresh 64-bit
   id in the ambient sidecar context.  Everything downstream — seal, link
   transit, the receiver's whole pipeline — attributes its spans to this
   id.  The timer also captures the id so continuations that resume in a
   later scheduler event (certificate fetch in flight) still record under
   it. *)
let open_send_trace t =
  if Fbsr_util.Span.enabled t.spans then begin
    Fbsr_util.Span.set_current (Fbsr_util.Span.fresh_id ());
    Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.current ())
  end
  else None

(* FBSSend() from the TFKC lookup on (Figure 4 S3-S10 with the Figure 6
   fast path), for a datagram whose flow is known and whose trace [tm]
   is open. *)
let send_flow t tm plan ~now ~sfl ~src ~dst ~payload
    (k : (string, error) result -> unit) =
  flow_key_via t t.tfkc ~sfl ~peer:dst ~src ~dst (function
    | Error e ->
        (* The datagram dies on the sender: terminal span here (the
           receive-side terminal stage never runs).  No drop counter:
           those count received datagrams; the caller counts the error. *)
        (match tm with
        | Some (stm, id) ->
            Fbsr_util.Span.finish t.spans stm ~id
              ~outcome:drop_outcomes.(cause_index Keying) "engine.send"
        | None -> ());
        k (Error e)
    | Ok entry -> (
        match tm with
        | Some (_, id) ->
            (* Restore the datagram's id for seal and the caller's
               transmit hook — the continuation may be running under a
               later event's ambient context. *)
            Fbsr_util.Span.with_current id (fun () ->
                seal_entry t plan ~now ~sfl ~entry ~payload k)
        | None -> seal_entry t plan ~now ~sfl ~entry ~payload k))

(* [send] for a datagram already classified: the sharded dispatcher runs
   FAM once, up front, because the sfl *determines* the owning shard —
   classification cannot move inside the shard without a circularity.
   The classify span and the flow-setup trace event belong to the
   dispatcher. *)
let send_classified ?batch ?confounder t ~now ~sfl ~src ~dst ~secret ~payload k =
  Batch.check_owner t batch;
  t.counters.sends <- t.counters.sends + 1;
  send_flow t (open_send_trace t)
    (seal_plan ?batch ?confounder secret)
    ~now ~sfl ~src ~dst ~payload k

(* FBSSend(), Figure 4 S1-S10: FAM classification, then [send_classified]'s
   path.  [now] is supplied by the caller (the datagram layer knows the
   time); the result is the wire representation: FBS header followed by
   the (possibly encrypted) body. *)
let send ?batch t ~now ~attrs ~secret ~payload (k : (string, error) result -> unit) =
  Batch.check_owner t batch;
  t.counters.sends <- t.counters.sends + 1;
  let tm = open_send_trace t in
  let sfl, decision = Fam.classify t.fam ~now attrs in
  let src = attrs.Fam.src and dst = attrs.Fam.dst in
  (match tm with
  | Some (stm, id) ->
      Fbsr_util.Span.finish t.spans stm ~id "fam.classify"
        ~detail:
          [
            ("sfl", Fbsr_util.Json.String (Fmt.str "%a" Sfl.pp sfl));
            ( "decision",
              Fbsr_util.Json.String
                (if decision = Fam.Fresh then "fresh" else "established") );
          ]
  | None -> ());
  send_flow t tm (seal_plan ?batch secret) ~now ~sfl ~src ~dst ~payload k

type accepted = {
  header : Header.t;
  payload : string; (* plaintext body *)
  peer : Principal.t;
}

(* How a received datagram ends: handed up, or refused for one cause. *)
type verdict = Delivered | Drop of cause

(* The receive terminal: every received datagram reaches it exactly once,
   so counters, flowstats and span terminals agree by construction.  A
   drop bumps its cause's counter and is attributed to [sfl], unless it
   is a header drop: that sfl was never accepted, or never decoded.  A
   delivery counts as accepted and adds [bytes] of plaintext to the
   inbound view of ([sfl], [src]).  Then the ["engine.receive"] span ends
   with the verdict's outcome.  Taking the optional timer keeps the exits
   free of closure allocation. *)
let conclude t (tm : (Fbsr_util.Span.timer * int64) option) ~now ~src ~sfl ~bytes
    verdict =
  let c = t.counters in
  (match verdict with
  | Delivered ->
      c.accepted <- c.accepted + 1;
      track_inbound t ~now ~sfl ~peer:src ~bytes
  | Drop cause ->
      let i = cause_index cause in
      c.drops.(i) <- c.drops.(i) + 1;
      if cause <> Header && Flowstats.enabled t.flowstats then
        Fbsr_util.Sketch.observe t.flowstats.Flowstats.drops (Sfl.to_int64 sfl) 1);
  match tm with
  | None -> ()
  | Some (stm, id) ->
      let outcome =
        match verdict with
        | Delivered -> "delivered"
        | Drop cause -> drop_outcomes.(cause_index cause)
      in
      Fbsr_util.Span.finish t.spans stm ~id ~outcome "engine.receive"

(* The sfl of a datagram refused at its header: never read (see [conclude]). *)
let no_flow = Sfl.of_int64 0L

(* The receive prologue — header decode, suite enforcement, replay probe
   (Figure 4 R1-R5).  It always runs at arrival, in arrival order, so
   every early refusal is the same whether or not the body open is later
   deferred.  The probe records nothing: a datagram enters the replay
   window only in [verify_and_deliver], once its MAC verified.  An
   [Error] has already been concluded; the caller just delivers it.

   The suite is taken from the header only to the extent we accept it: a
   receiver enforces its own configured suite to prevent
   algorithm-downgrade games (the paper leaves this open). *)
let receive_prologue t ~now ~src tm ~(wire : Fbsr_util.Slice.t) =
  match Header.decode_view wire with
  | Ok v when v.Header.v_suite.Suite.id = t.suite.Suite.id -> (
      let sfl = v.Header.v_sfl and timestamp = v.Header.v_timestamp in
      let rtm =
        if Fbsr_util.Span.enabled t.spans then Some (Fbsr_util.Span.start t.spans)
        else None
      in
      let verdict =
        Replay.probe t.replay ~now ~sfl ~peer:src ~confounder:v.Header.v_confounder
          ~timestamp
      in
      (match rtm with
      | Some stm ->
          let id = match tm with Some (_, id) -> id | None -> 0L in
          Fbsr_util.Span.finish t.spans stm ~id "replay.check"
            ~detail:
              (match verdict with
              | Replay.Fresh -> [ ("verdict", Fbsr_util.Json.String "fresh") ]
              | Replay.Duplicate -> [ ("verdict", Fbsr_util.Json.String "duplicate") ]
              | Replay.Stale ->
                  (* The same values the [Stale] error carries. *)
                  [
                    ("verdict", Fbsr_util.Json.String "stale");
                    ("timestamp", Fbsr_util.Json.Int timestamp);
                    ( "now_minutes",
                      Fbsr_util.Json.Int (Replay.minutes_of_seconds now) );
                  ])
      | None -> ());
      match verdict with
      | Replay.Stale ->
          conclude t tm ~now ~src ~sfl ~bytes:0 (Drop Stale);
          Error (Stale { timestamp; now_minutes = Replay.minutes_of_seconds now })
      | Replay.Duplicate ->
          conclude t tm ~now ~src ~sfl ~bytes:0 (Drop Duplicate);
          Error Duplicate
      | Replay.Fresh -> Ok v)
  | decoded ->
      conclude t tm ~now ~src ~sfl:no_flow ~bytes:0 (Drop Header);
      Error
        (Header_error
           (match decoded with
           | Error e -> e
           | Ok v -> Header.Unknown_suite v.Header.v_suite.Suite.id))

(* R7-R12 over the opened body: verify the MAC, commit to the replay
   window, deliver.  The commit re-tests for a duplicate, so of two
   intact copies parked in one batch the first delivers and the second
   ends as a duplicate, in enqueue order.  [plaintext] borrows either
   the wire buffer (non-secret / NOP) or the decrypted string;
   [materialize] copies it out only on acceptance. *)
let verify_and_deliver t ~now ~src ~(v : Header.view) ~entry tm
    (k : (accepted, error) result -> unit) (plaintext : Fbsr_util.Slice.t)
    materialize =
  let module A = (val t.armor : Armor.S) in
  let sfl = v.Header.v_sfl and confounder = v.Header.v_confounder in
  let timestamp = v.Header.v_timestamp in
  let verdict =
    if
      not
        (A.verify_mac t.actx entry ~secret:v.Header.v_secret ~confounder ~timestamp
           ~payload:plaintext ~expected:v.Header.v_mac)
    then Drop Mac
    else if not (Replay.commit t.replay ~sfl ~peer:src ~confounder ~timestamp) then
      Drop Duplicate
    else Delivered
  in
  conclude t tm ~now ~src ~sfl ~bytes:(Fbsr_util.Slice.length plaintext) verdict;
  match verdict with
  | Drop Mac -> k (Error Bad_mac)
  | Drop _ (* the commit's duplicate *) -> k (Error Duplicate)
  | Delivered -> (
      let accepted =
        Ok { header = Header.to_header v; payload = materialize (); peer = src }
      in
      match tm with
      | Some (_, id) ->
          (* Deliver under the datagram's id even when the keying
             continuation resumed in a later event (or the batch flushed
             in one); an acknowledgement sent from the handler opens its
             own trace and this scope restores ours. *)
          Fbsr_util.Span.with_current id (fun () -> k accepted)
      | None -> k accepted)

(* R6-R12 once the flow entry is in hand: open the body, verify, deliver.
   With a [batch], a secret body whose armor has a batched decrypt kernel
   is opened in the batch's open lane instead: the armor validates the
   ciphertext now (a frame it refuses — bad length, corrupt padding — is
   refused here, at the same stage as inline) and returns the pending job
   plus the plaintext string it will fill, allocated now so the datagram
   still pays exactly one allocation.  That string is write-once-at-flush
   and the wire is borrowed until then: nothing reads either before the
   lane has run. *)
let open_entry ?batch t ~now ~src ~(v : Header.view) ~entry tm
    (k : (accepted, error) result -> unit) =
  let module A = (val t.armor : Armor.S) in
  let body = v.Header.v_body in
  let confounder = v.Header.v_confounder in
  if not (v.Header.v_secret && A.encrypts) then
    (* Plaintext body stays in the wire buffer until the datagram is
       accepted; only then is it copied out (the slice must not outlive
       the wire buffer). *)
    verify_and_deliver t ~now ~src ~v ~entry tm k body (fun () ->
        t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
        t.counters.bytes_copied <-
          t.counters.bytes_copied + Fbsr_util.Slice.length body;
        Fbsr_util.Slice.to_string body)
  else
    match (batch, A.batch_rx) with
    | Some b, Some ops -> (
        match ops.Armor.defer_open t.actx entry ~confounder ~body with
        | Error () ->
            conclude t tm ~now ~src ~sfl:v.Header.v_sfl ~bytes:0 (Drop Decrypt);
            k (Error Decrypt_error)
        | Ok (job, plaintext) ->
            t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
            t.counters.rx_batch_deferred <- t.counters.rx_batch_deferred + 1;
            Batch.enqueue b b.Batch.opens
              {
                Batch.job;
                complete =
                  (fun () ->
                    verify_and_deliver t ~now ~src ~v ~entry tm k
                      (Fbsr_util.Slice.of_string plaintext) (fun () -> plaintext));
              })
    | _ -> (
        match A.open_body t.actx entry ~confounder ~body with
        | Ok plaintext ->
            t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
            (* Already a fresh exact-size string: hand it out as-is, no
               further copy. *)
            verify_and_deliver t ~now ~src ~v ~entry tm k
              (Fbsr_util.Slice.of_string plaintext) (fun () -> plaintext)
        | Error () ->
            conclude t tm ~now ~src ~sfl:v.Header.v_sfl ~bytes:0 (Drop Decrypt);
            k (Error Decrypt_error))

(* FBSReceive(), Figure 4 R1-R12 with the RFKC fast path.  The header is
   parsed as a view of the wire, the MAC is verified against the wire
   bytes in place, and only an accepted datagram materializes a header
   record and payload string. *)
let receive ?batch t ~now ~src ~wire (k : (accepted, error) result -> unit) =
  Batch.check_owner t batch;
  t.counters.receives <- t.counters.receives + 1;
  (* The ambient id was restored by the delivery path (netsim) from the
     sender's transmit-time capture — this is where the receive-side
     chain joins the sender's trace. *)
  let tm =
    if Fbsr_util.Span.enabled t.spans then
      Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.current ())
    else None
  in
  match receive_prologue t ~now ~src tm ~wire:(Fbsr_util.Slice.of_string wire) with
  | Error e -> k (Error e)
  | Ok v ->
      let dst = local t in
      flow_key_via t t.rfkc ~sfl:v.Header.v_sfl ~peer:src ~src ~dst (function
        | Error e ->
            conclude t tm ~now ~src ~sfl:v.Header.v_sfl ~bytes:0 (Drop Keying);
            k (Error e)
        | Ok entry -> open_entry ?batch t ~now ~src ~v ~entry tm k)

(* Synchronous conveniences for callers whose resolver completes inline. *)

let send_sync t ~now ~attrs ~secret ~payload =
  let result = ref (Error (Keying_error (Keying.No_certificate "pending"))) in
  send t ~now ~attrs ~secret ~payload (fun r -> result := r);
  !result

let receive_sync t ~now ~src ~wire =
  let result = ref (Error (Keying_error (Keying.No_certificate "pending"))) in
  receive t ~now ~src ~wire (fun r -> result := r);
  !result

let header_overhead t = Header.size_for_suite t.suite

(* Header plus worst-case body growth when [secret]: the armor knows its
   padding. *)
let wire_overhead t =
  let module A = (val t.armor : Armor.S) in
  header_overhead t + A.max_body_growth

let armor t = t.armor
