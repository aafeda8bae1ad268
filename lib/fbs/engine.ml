(* FBS protocol processing — FBSSend()/FBSReceive() of Figure 4, with the
   cache fast path of Figure 6.

   The engine is deliberately layer-independent (Section 3): it consumes and
   produces opaque byte strings plus the attributes the FAM policy needs,
   and assumes only an insecure datagram transport underneath.  The IP
   mapping in [Fbsr_fbs_ip] embeds its output between the IPv4 header and
   the transport payload; tests drive it directly.  There is one send path
   and one receive path; an optional cross-flow batch only decides where
   the seal's MAC and body transform run.

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

(* Drops are counted by cause so graceful degradation is observable: the
   split between MAC failures (corruption or forgery), duplicates
   (replay) and keying errors (certificate fetch lost) tells the operator
   *why* datagrams are refused.  The record lives in [Armor] (the seal
   and open steps account their work on it directly) and is re-exported
   here field for field; engine.mli documents every field. *)
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
  mutable keysched_hits : int;
  mutable keysched_misses : int;
  mutable mac_midstate_hits : int;
  mutable mac_midstate_misses : int;
}

let drop_count c cause = c.drops.(cause_index cause)
let drops c = List.fold_left (fun acc cause -> acc + drop_count c cause) 0 causes
let drop_metric cause = "fbs.engine.drops." ^ cause_name cause

(* A TFKC/RFKC entry: the derived flow key plus the DES key schedule and
   the MAC midstate, populated lazily on first use.  They are owned by
   the entry — they share its lifetime, so cache eviction or
   invalidation drops key material and schedules together and there is
   no separate invalidation protocol.  The record lives in [Armor],
   whose seal and open steps fill it. *)
type flow_entry = Armor.flow_state

let flow_entry_of_key = Armor.flow_state_of_key
let flow_entry_key (e : flow_entry) = e.Armor.fk

(* The TFKC/RFKC key of a flow on this host, built once per datagram
   (engine.mli documents the fields).  The local principal is the
   engine's own, so it enters the CRC-32 index but is not stored. *)
module Key = struct
  type t = { sfl : Sfl.t; peer : Principal.t; index : int; fingerprint : int }

  let make ~local ~sfl ~peer =
    let s = Sfl.to_int64 sfl in
    let p = Principal.to_string peer and l = Principal.to_string local in
    let open Fbsr_util.Crc32 in
    let h = update (update_int64 0 s) p 0 (String.length p) in
    {
      sfl;
      peer;
      index = update h l 0 (String.length l);
      fingerprint = Fbsr_util.Fingerprint.(string ~seed:(int64 s) p);
    }

  let index k = k.index
  let fingerprint k = k.fingerprint

  let equal a b =
    a.fingerprint = b.fingerprint
    && Sfl.equal a.sfl b.sfl
    && String.equal (Principal.to_string a.peer) (Principal.to_string b.peer)
end

type t = {
  keying : Keying.t;
  fam : Fam.t;
  suite : Suite.t;
  (* Armor-call context: the counters record (shared with [counters]
     below), whether [suite] is NOP, and the reusable per-engine scratch
     for the zero-copy datapath (MAC prelude, duplicated-confounder IV).
     Scratch is read through [Bytes.unsafe_to_string] views consumed
     before the next refill, so no datagram ever observes another's
     bytes. *)
  actx : Armor.ctx;
  tfkc : (Key.t, flow_entry) Cache.t;
  rfkc : (Key.t, flow_entry) Cache.t;
  replay : Replay.t;
  confounder_gen : Fbsr_util.Lcg.t;
  counters : counters;
  spans : Fbsr_util.Span.t;
  (* Per-flow heavy-hitter attribution (sfl-keyed sketches); [Flowstats.none]
     keeps the datapath at one branch per quantity. *)
  flowstats : Flowstats.t;
}

let flow_key_cache ~sets name =
  Cache.create ~assoc:1 ~sets ~hash:Key.index ~fingerprint:Key.fingerprint
    ~equal:Key.equal ~name ()

let create ?(suite = Suite.paper_md5_des) ?(tfkc_sets = 128) ?(rfkc_sets = 128)
    ?(replay_window_minutes = 2) ?(strict_replay = false)
    ?(spans = Fbsr_util.Span.none) ?(flowstats = Flowstats.none) ~keying ~fam () =
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
      keysched_hits = 0;
      keysched_misses = 0;
      mac_midstate_hits = 0;
      mac_midstate_misses = 0;
    }
  in
  {
    keying;
    fam;
    suite;
    actx = Armor.make_ctx ~nop:(Suite.is_nop suite) counters;
    (* Figure 6's flow-key caches are direct-mapped tables. *)
    tfkc = flow_key_cache ~sets:tfkc_sets "tfkc";
    rfkc = flow_key_cache ~sets:rfkc_sets "rfkc";
    replay = Replay.create ~window_minutes:replay_window_minutes ~strict:strict_replay ();
    confounder_gen = Fbsr_util.Lcg.create 0x5eed;
    spans;
    flowstats;
    counters;
  }

let local t = Keying.local t.keying
let fam t = t.fam
let keying t = t.keying
let tfkc t = t.tfkc
let rfkc t = t.rfkc
let replay t = t.replay
let counters t = t.counters
let flowstats t = t.flowstats

(* Register the whole fbs.* subtree for this engine: its own counters
   (including drops.<cause>), all four cache levels, replay and FAM
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
  register_probe e "keysched.hits" (fun () -> c.keysched_hits);
  register_probe e "keysched.misses" (fun () -> c.keysched_misses);
  register_probe e "macmid.hits" (fun () -> c.mac_midstate_hits);
  register_probe e "macmid.misses" (fun () -> c.mac_midstate_misses);
  Cache.register_metrics t.tfkc (sub m "fbs.cache.tfkc");
  Cache.register_metrics t.rfkc (sub m "fbs.cache.rfkc");
  Cache.register_metrics (Keying.pvc t.keying) (sub m "fbs.cache.pvc");
  Cache.register_metrics (Keying.mkc t.keying) (sub m "fbs.cache.mkc");
  Replay.register_metrics t.replay (sub m "fbs.replay");
  Fam.register_metrics t.fam (sub m "fbs.fam");
  Keying.register_metrics t.keying (sub m "fbs.keying")

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

(* How a flow-key lookup ends: the cached entry, an entry derived on a
   miss (not yet cached) with the key to cache it under, or the keying
   error. *)
type lookup =
  | Cached of flow_entry
  | Derived of { key : Key.t; entry : flow_entry }
  | Failed of error

(* Look up the flow key for (sfl, peer) in the given cache (TFKC on
   send, RFKC on receive), deriving it on a miss.  CPS because the master
   key may need a certificate fetch.  The datagram's one cache key serves
   the lookup and the join, and a [Derived] result carries it for the
   caller's insert: the send path's at once, the receive path's only once
   a datagram verified under it. *)
let flow_key_via t cache ~sfl ~peer ~src ~dst (k : lookup -> unit) =
  let key = Key.make ~local:(local t) ~sfl ~peer in
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
      k (Cached entry)
  | None ->
      (* A miss that is not cold (TFKC and RFKC always classify) is on a
         key this cache held before: its entry was evicted or invalidated
         and we are recovering by recomputation, the soft-state guarantee
         at work.  A key never cached (on the RFKC, every earlier datagram
         under it was refused) misses cold. *)
      let revisit = stats.Cache.misses_cold = cold_before in
      Keying.get_master t.keying peer (function
        | Error e ->
            finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
              ~master:"error";
            k (Failed (Keying_error e))
        | Ok master -> (
            (* Waiters on one pending master key resume in turn, and the
               first one's entry is cached by the time the next resumes (a
               send caches at once, a receive once its datagram verified):
               join it rather than derive the key again. *)
            match Cache.peek cache key with
            | Some entry ->
                finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
                  ~master:(Keying.last_resolution t.keying);
                k (Cached entry)
            | None ->
                t.counters.flow_key_computations <- t.counters.flow_key_computations + 1;
                if revisit then begin
                  t.counters.flow_key_recoveries <- t.counters.flow_key_recoveries + 1;
                  (* Soft-state degradation: the flow's key material had to
                     be recomputed after eviction — attribute it to the flow. *)
                  if Flowstats.enabled t.flowstats then
                    Fbsr_util.Sketch.observe t.flowstats.Flowstats.degraded
                      (Sfl.to_int64 sfl) 1
                end;
                let fk = Keying.flow_key ~sfl ~master ~src ~dst in
                finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
                  ~master:(Keying.last_resolution t.keying);
                k (Derived { key; entry = flow_entry_of_key fk })))

(* Cross-flow batching of seals, bound to one engine.  A secret datagram
   of an engine that encrypts (not NOP) parks its seal here as a fully
   assembled wire whose MAC slot and body region are still pending.  The
   next such datagram runs beside it (the DES-CBC kernel pairs two
   independent chains), and only then do both complete, in call order,
   so a caller never observes a half-sealed datagram; [flush] runs a lone
   parked one.  Everything else seals inline, on the very same call,
   after flushing a parked datagram, and every receive opens inline. *)
module Batch = struct
  type engine = t

  (* At most one parked datagram: its pending seal job, and what
     finishes it once the job has run (the deferred seal span and the
     sender's continuation). *)
  type t = {
    engine : engine;
    mutable parked : (Fbsr_crypto.Fused.job * (unit -> unit)) option;
    mutable calls : int;
        (* send calls given this batch that have not returned: a seal
           parks only inside one, so one resumed after a keying fetch
           seals inline *)
    mutable sealing : seal_plan; (* this batch's secret seals, built once *)
    mutable clear : seal_plan; (* ... and its non-secret ones *)
  }

  (* What a seal does beyond writing the payload: whether the body is
     secret, the batch its transform may park in, and a caller-drawn
     confounder.  The send path carries this as one value across the
     keying step, and the common plans are shared values (the inline
     ones constants, a batch's secret one built with the batch), so a
     send captures and allocates no more than a bare [secret] flag
     would. *)
  and seal_plan = { secret : bool; batch : t option; confounder : int option }

  let create (engine : engine) =
    let b =
      {
        engine;
        parked = None;
        calls = 0;
        sealing = { secret = true; batch = None; confounder = None };
        clear = { secret = false; batch = None; confounder = None };
      }
    in
    b.sealing <- { secret = true; batch = Some b; confounder = None };
    b.clear <- { secret = false; batch = Some b; confounder = None };
    b

  (* A send call given [batch] begins.  A batch seals with its own
     engine's flow state and counts on its own engine: refuse one handed
     to another engine. *)
  let enter t = function
    | Some b when b.engine != t -> invalid_arg "Engine: batch bound to another engine"
    | Some b -> b.calls <- b.calls + 1
    | None -> ()

  let leave = function Some b -> b.calls <- b.calls - 1 | None -> ()

  let pending b = match b.parked with None -> 0 | Some _ -> 1

  (* Run the parked job alone and complete its datagram.  Returns the
     blocks the kernel ran.  The slot is emptied first, here and in
     [enqueue], so a completion may park again. *)
  let flush b =
    match b.parked with
    | Some (job, complete) ->
        b.parked <- None;
        let blocks = Fbsr_crypto.Fused.run job in
        complete ();
        blocks
    | None -> 0

  (* Park a datagram in the empty slot, or run it beside the parked one
     and complete both in call order. *)
  let enqueue b job complete =
    match b.parked with
    | None -> b.parked <- Some (job, complete)
    | Some (first, complete_first) ->
        b.parked <- None;
        ignore (Fbsr_crypto.Fused.run_pair first job : int);
        complete_first ();
        complete ()

  (* A seal that cannot park completes after the parked one: call order. *)
  let settle = function Some b -> ignore (flush b : int) | None -> ()
end

type seal_plan = Batch.seal_plan = {
  secret : bool;
  batch : Batch.t option;
  confounder : int option;
}

let plain = { secret = false; batch = None; confounder = None }
let secret_inline = { plain with secret = true }

let seal_plan ?batch ?confounder secret =
  match (batch, confounder) with
  | None, None -> if secret then secret_inline else plain
  | Some b, None -> if secret then b.Batch.sealing else b.Batch.clear
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
   at once when the seal completes inline (after the plan's batch
   completes a parked datagram), else when its parked job runs.

   Zero-copy assembly: the wire size is known up front (header + body
   length), so header, MAC and body are written into one exact-capacity
   buffer which [finalize] steals — one allocation per sealed datagram.
   MAC construction, body sizing and the body transform are [Armor]'s
   business; the engine only assembles.

   With a [batch], a secret datagram of an engine that encrypts leaves
   its MAC and body to the batch, provided its send call is still open
   (one resumed after a keying fetch seals inline): [Armor.defer]
   reserves the MAC slot and body region and returns the pending job
   that will fill them (accounting the MAC and the encryption as the
   inline path would).  The wire is finalized with the region still
   unwritten and ALIASES the job's destination buffer ([finalize] shares
   storage at exact capacity), so MAC and ciphertext land in the
   already-issued string when the batch runs the job — which is why the
   continuation only fires from there.  The seal span finishes there
   too, covering the wait in the slot: the real seal latency under
   batching.

   A plan's [confounder] overrides the engine's generator: the sharded
   dispatcher pre-draws confounders in input order so the wire bytes are
   independent of the shard count. *)
let seal_entry t { secret; batch; confounder } ~now ~sfl ~entry ~payload
    (k : (string, error) result -> unit) =
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
  let body_len = Armor.sealed_body_len t.actx ~secret payload_len in
  let w = Fbsr_util.Byte_writer.create ~capacity:(Header.size + body_len) () in
  Header.encode_fields_into w ~sfl ~suite:t.suite ~secret ~confounder ~timestamp;
  match batch with
  | Some ({ Batch.calls; _ } as b) when secret && calls > 0 && not t.actx.Armor.nop ->
      let job = Armor.defer t.actx entry ~confounder ~timestamp ~payload w in
      let wire = Fbsr_util.Byte_writer.finalize w in
      let complete =
        match stm with
        | None -> fun () -> k (Ok wire)
        | Some tm ->
            (* The flush runs under another event's ambient id: capture
               ours, and the cache deltas as they stand now. *)
            let id = Fbsr_util.Span.current () in
            let detail =
              seal_detail t ~batched:true ~secret ~wire ~ksh0 ~ksm0 ~mmh0 ~mmm0
            in
            fun () ->
              Fbsr_util.Span.finish t.spans tm ~id "engine.seal" ~detail;
              Fbsr_util.Span.apply_with_current id k (Ok wire)
      in
      Batch.enqueue b job complete
  | _ ->
      Armor.seal t.actx entry ~secret ~confounder ~timestamp ~payload w;
      let wire = Fbsr_util.Byte_writer.finalize w in
      (match stm with
      | Some tm ->
          Fbsr_util.Span.finish t.spans tm "engine.seal"
            ~detail:
              (seal_detail t ~batched:false ~secret ~wire ~ksh0 ~ksm0 ~mmh0 ~mmm0)
      | None -> ());
      Batch.settle batch;
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

(* Seal under the datagram's trace id: the keying continuation may be
   running under a later event's ambient context, and the seal and the
   caller's transmit hook must record under ours. *)
let seal_traced t tm plan ~now ~sfl ~payload k entry =
  match tm with
  | Some (_, id) ->
      Fbsr_util.Span.with_current id (fun () ->
          seal_entry t plan ~now ~sfl ~entry ~payload k)
  | None -> seal_entry t plan ~now ~sfl ~entry ~payload k

(* FBSSend() from the TFKC lookup on (Figure 4 S3-S10 with the Figure 6
   fast path), for a datagram whose flow is known and whose trace [tm]
   is open: one send call on the plan's batch (see [Batch.calls]). *)
let send_flow t tm plan ~now ~sfl ~src ~dst ~payload
    (k : (string, error) result -> unit) =
  Batch.enter t plan.batch;
  match
    flow_key_via t t.tfkc ~sfl ~peer:dst ~src ~dst (function
      | Failed e ->
          (* The datagram dies on the sender: terminal span here (the
             receive-side terminal stage never runs).  No drop counter:
             those count received datagrams; the caller counts the error. *)
          (match tm with
          | Some (stm, id) ->
              Fbsr_util.Span.finish t.spans stm ~id
                ~outcome:drop_outcomes.(cause_index Keying) "engine.send"
          | None -> ());
          Batch.settle plan.batch;
          k (Error e)
      | Cached entry -> seal_traced t tm plan ~now ~sfl ~payload k entry
      | Derived { key; entry } ->
          Cache.insert t.tfkc key entry;
          seal_traced t tm plan ~now ~sfl ~payload k entry)
  with
  | () -> Batch.leave plan.batch
  | exception e ->
      Batch.leave plan.batch;
      raise e

(* [send] for a datagram already classified: the sharded dispatcher runs
   FAM once, up front, because the sfl *determines* the owning shard —
   classification cannot move inside the shard without a circularity.
   The classify span and the flow-setup trace event belong to the
   dispatcher. *)
let send_classified ?batch ?confounder t ~now ~sfl ~src ~dst ~secret ~payload k =
  t.counters.sends <- t.counters.sends + 1;
  send_flow t (open_send_trace t)
    (seal_plan ?batch ?confounder secret)
    ~now ~sfl ~src ~dst ~payload k

(* FBSSend(), Figure 4 S1-S10: FAM classification, then [send_classified]'s
   path.  [now] is supplied by the caller (the datagram layer knows the
   time); the result is the wire representation: FBS header followed by
   the (possibly encrypted) body. *)
let send ?batch t ~now ~attrs ~secret ~payload (k : (string, error) result -> unit) =
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
   delivery counts as accepted.  Then the ["engine.receive"] span ends
   with the verdict's outcome.  Taking the optional timer keeps the exits
   free of closure allocation. *)
let conclude t (tm : (Fbsr_util.Span.timer * int64) option) ~sfl verdict =
  let c = t.counters in
  (match verdict with
  | Delivered -> c.accepted <- c.accepted + 1
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
   (Figure 4 R1-R5).  The probe records nothing: a datagram enters the
   replay window only in [verify_and_deliver], once its MAC verified.
   An [Error] has already been concluded; the caller just delivers it.

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
          conclude t tm ~sfl (Drop Stale);
          Error (Stale { timestamp; now_minutes = Replay.minutes_of_seconds now })
      | Replay.Duplicate ->
          conclude t tm ~sfl (Drop Duplicate);
          Error Duplicate
      | Replay.Fresh -> Ok v)
  | decoded ->
      conclude t tm ~sfl:no_flow (Drop Header);
      Error
        (Header_error
           (match decoded with
           | Error e -> e
           | Ok v -> Header.Unknown_suite v.Header.v_suite.Suite.id))

(* R7-R12 over the opened body: verify the MAC, commit to the replay
   window, deliver.  [plaintext] borrows either the wire buffer
   (non-secret / NOP) or the decrypted string; [materialize] copies it
   out only on acceptance. *)
let verify_and_deliver t ~src ~(v : Header.view) ~entry tm
    (k : (accepted, error) result -> unit) (plaintext : Fbsr_util.Slice.t)
    materialize =
  let sfl = v.Header.v_sfl and confounder = v.Header.v_confounder in
  let timestamp = v.Header.v_timestamp in
  let verdict =
    if
      not
        (Armor.verify_mac t.actx entry ~secret:v.Header.v_secret ~confounder ~timestamp
           ~payload:plaintext ~expected:v.Header.v_mac)
    then Drop Mac
    else if not (Replay.commit t.replay ~sfl ~peer:src ~confounder ~timestamp) then
      Drop Duplicate
    else Delivered
  in
  conclude t tm ~sfl verdict;
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
             continuation resumed in a later event; an acknowledgement
             sent from the handler opens its own trace and this scope
             restores ours. *)
          Fbsr_util.Span.with_current id (fun () -> k accepted)
      | None -> k accepted)

(* R6-R12 once the flow entry is in hand: open the body, verify,
   deliver. *)
let open_entry t ~src ~(v : Header.view) ~entry tm
    (k : (accepted, error) result -> unit) =
  let body = v.Header.v_body in
  if (not v.Header.v_secret) || t.actx.Armor.nop then
    (* Plaintext body stays in the wire buffer until the datagram is
       accepted; only then is it copied out (the slice must not outlive
       the wire buffer). *)
    verify_and_deliver t ~src ~v ~entry tm k body (fun () ->
        Fbsr_util.Slice.to_string body)
  else
    match Armor.open_body t.actx entry ~confounder:v.Header.v_confounder ~body with
    | Ok plaintext ->
        (* Already a fresh exact-size string: hand it out as-is, no
           further copy. *)
        verify_and_deliver t ~src ~v ~entry tm k
          (Fbsr_util.Slice.of_string plaintext) (fun () -> plaintext)
    | Error () ->
        conclude t tm ~sfl:v.Header.v_sfl (Drop Decrypt);
        k (Error Decrypt_error)

(* FBSReceive(), Figure 4 R1-R12 with the RFKC fast path.  The header is
   parsed as a view of the wire, the MAC is verified against the wire
   bytes in place, and only an accepted datagram materializes a header
   record and payload string. *)
let receive t ~now ~src ~wire (k : (accepted, error) result -> unit) =
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
        | Failed e ->
            conclude t tm ~sfl:v.Header.v_sfl (Drop Keying);
            k (Error e)
        | Cached entry -> open_entry t ~src ~v ~entry tm k
        | Derived { key; entry } ->
            (* The derived entry enters the RFKC only once a datagram
               verified under it: a forged sfl costs a key derivation,
               never a real flow's cache slot. *)
            open_entry t ~src ~v ~entry tm (fun r ->
                (match r with Ok _ -> Cache.insert t.rfkc key entry | Error _ -> ());
                k r))

(* Synchronous conveniences for callers whose resolver completes inline. *)

let send_sync t ~now ~attrs ~secret ~payload =
  let result = ref (Error (Keying_error (Keying.No_certificate "pending"))) in
  send t ~now ~attrs ~secret ~payload (fun r -> result := r);
  !result

let receive_sync t ~now ~src ~wire =
  let result = ref (Error (Keying_error (Keying.No_certificate "pending"))) in
  receive t ~now ~src ~wire (fun r -> result := r);
  !result

let header_overhead _ = Header.size

(* Header plus worst-case body growth when [secret]: the DES-CBC
   padding. *)
let wire_overhead t = header_overhead t + Armor.max_body_growth
