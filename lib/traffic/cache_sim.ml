(* Cache simulation (Figure 11, plus the Section 5.3 hash-function and
   associativity discussion as ablations).

   Replays a trace through per-host flow-key caches: each source host's
   TFKC sees one access per datagram it sends, keyed by (sfl, dst, src);
   each destination host's RFKC sees one access per datagram it receives,
   keyed by (sfl, src, dst).  Flow assignment uses the real Section 7.1
   policy, as in [Flow_sim].

   Hash choices reproduce the paper's discussion: CRC-32 randomises the
   correlated inputs (sequential sfl values, local addresses); "modulo"
   and "XOR-folding" are the cheap hashes the paper warns about. *)

type hash_kind = Crc32 | Modulo | Xor_fold

(* The engine's own flow-cache key: its [index] is the CRC-32 over
   (sfl, peer, local) and its fingerprint names it to the classifier. *)
module Key = Fbsr_fbs.Engine.Key

(* The set hash of a key in the cache of host [local]. *)
let hash_fn kind ~local =
  match kind with
  | Crc32 -> Key.index
  | Modulo ->
      (* Low bits of the sfl: sequential sfl values map to sequential
         sets, so distinct hosts' flows collide in clusters. *)
      fun (k : Key.t) -> Int64.to_int (Int64.logand (Fbsr_fbs.Sfl.to_int64 k.sfl) 0x3fffffffL)
  | Xor_fold ->
      let fold_str s =
        let acc = ref 0 in
        String.iter (fun c -> acc := !acc lxor Char.code c) s;
        !acc
      in
      let local_fold = fold_str local in
      fun (k : Key.t) ->
        let sfl = Fbsr_fbs.Sfl.to_int64 k.sfl in
        (Int64.to_int (Int64.logand sfl 0xffffffL)
        lxor Int64.to_int (Int64.shift_right_logical sfl 24))
        lxor fold_str (Fbsr_fbs.Principal.to_string k.peer)
        lxor local_fold
        land 0x3fffffff

type side = Tfkc | Rfkc

type config = {
  sets : int;
  assoc : int;
  hash : hash_kind;
  side : side;
  threshold : float;
  fst_size : int;
  replacement : Fbsr_fbs.Cache.replacement;
}

let default_config =
  {
    sets = 64;
    assoc = 1;
    hash = Crc32;
    side = Tfkc;
    threshold = 600.0;
    fst_size = 256;
    replacement = Fbsr_fbs.Cache.Lru;
  }

type result = {
  config : config;
  accesses : int;
  hits : int;
  misses_cold : int;
  misses_capacity : int;
  misses_conflict : int;
  miss_rate : float;
}

let run ?(config = default_config) (records : Record.t list) =
  let rng = Fbsr_util.Rng.create 3 in
  (* Flow assignment state per source host (the senders run the policy). *)
  let per_source = Hashtbl.create 32 in
  let state_for src =
    match Hashtbl.find_opt per_source src with
    | Some s -> s
    | None ->
        let alloc = Fbsr_fbs.Sfl.allocator ~rng in
        let s =
          Fbsr_fbs.Policy_five_tuple.make ~fst_size:config.fst_size
            ~threshold:config.threshold ~alloc ()
        in
        Hashtbl.replace per_source src s;
        s
  in
  (* One cache per host on the measured side. *)
  let caches : (string, (Key.t, unit) Fbsr_fbs.Cache.t) Hashtbl.t = Hashtbl.create 32 in
  let cache_for host =
    match Hashtbl.find_opt caches host with
    | Some c -> c
    | None ->
        let c =
          Fbsr_fbs.Cache.create ~assoc:config.assoc ~sets:config.sets
            ~replacement:config.replacement ~hash:(hash_fn config.hash ~local:host)
            ~fingerprint:Key.fingerprint ~equal:Key.equal ()
        in
        Hashtbl.replace caches host c;
        c
  in
  List.iter
    (fun (r : Record.t) ->
      let state = state_for r.Record.src in
      let attrs =
        Fbsr_fbs.Fam.attrs ~protocol:r.Record.protocol ~src_port:r.Record.src_port
          ~dst_port:r.Record.dst_port ~size:r.Record.size
          ~src:(Fbsr_fbs.Principal.of_string r.Record.src)
          ~dst:(Fbsr_fbs.Principal.of_string r.Record.dst)
          ()
      in
      let sfl, _ = Fbsr_fbs.Policy_five_tuple.map state ~now:r.Record.time attrs in
      let local, peer =
        match config.side with
        | Tfkc -> (r.Record.src, r.Record.dst)
        | Rfkc -> (r.Record.dst, r.Record.src)
      in
      let cache = cache_for local in
      let key =
        Key.make ~local:(Fbsr_fbs.Principal.of_string local) ~sfl
          ~peer:(Fbsr_fbs.Principal.of_string peer)
      in
      match Fbsr_fbs.Cache.find cache key with
      | Some () -> ()
      | None -> Fbsr_fbs.Cache.insert cache key ())
    records;
  let acc = ref (0, 0, 0, 0, 0) in
  Hashtbl.iter
    (fun _ c ->
      let s = Fbsr_fbs.Cache.stats c in
      let h, cold, cap, conf, a = !acc in
      acc :=
        ( h + s.Fbsr_fbs.Cache.hits,
          cold + s.Fbsr_fbs.Cache.misses_cold,
          cap + s.Fbsr_fbs.Cache.misses_capacity,
          conf + s.Fbsr_fbs.Cache.misses_conflict,
          a + Fbsr_fbs.Cache.accesses s ))
    caches;
  let hits, cold, cap, conf, accesses = !acc in
  {
    config;
    accesses;
    hits;
    misses_cold = cold;
    misses_capacity = cap;
    misses_conflict = conf;
    miss_rate =
      (if accesses = 0 then 0.0
       else float_of_int (cold + cap + conf) /. float_of_int accesses);
  }

(* The Figure 11 sweep: miss rate as a function of cache size. *)
let size_sweep ?(config = default_config) ~sizes records =
  List.map (fun sets -> run ~config:{ config with sets } records) sizes
