(* Zero-message keying (paper, Sections 5.1-5.3).

   The pair-based master key K_{S,D} = g^{sd} mod p is implicit: each side
   computes it from its own Diffie-Hellman private value and the peer's
   certified public value.  The flow key is

       K_f = H(sfl | K_{S,D} | S | D)

   Knowing K_f reveals neither K_{S,D} nor any other flow key (one-way H).

   This module owns the bottom two levels of the cache hierarchy of
   Figure 5:

   - PVC (public-value cache) holds *certificates*, not bare values,
     "because the former need not be secure; a certificate can be verified
     each time it is used".  Misses go to the resolver — the master key
     daemon's network fetch in the IP mapping, or a local directory in
     tests ("pinning" certificates is the paper's alternative).
   - MKC (master-key cache) holds computed K_{S,D} values; each fill costs
     a modular exponentiation.

   Resolution is continuation-passing so a PVC miss can suspend a datagram
   while the certificate fetch round-trips the (simulated) network.  The
   fetches in flight are a [Fbsr_util.Pending] table, name -> waiters, so
   a burst to one cold peer costs one fetch; an entry has no deadline,
   because the resolver owns the retransmission policy and answers every
   fetch exactly once. *)

type error =
  | No_certificate of string (* resolver failed for this principal *)
  | Bad_certificate of string (* verification failed *)
  | Wrong_group of string

type fetch_result = (Fbsr_cert.Certificate.t, string) result

type resolver = Principal.t -> (fetch_result -> unit) -> unit

type counters = {
  mutable master_key_computations : int; (* modular exponentiations *)
  mutable certificate_fetches : int;
  mutable certificate_verifications : int;
}

type t = {
  local : Principal.t;
  group : Fbsr_crypto.Dh.group;
  private_value : Fbsr_crypto.Dh.private_value;
  ca_public : Fbsr_crypto.Rsa.public_key;
  ca_hash : Fbsr_crypto.Hash.t;
  resolver : resolver;
  clock : unit -> float;
  pvc : (string, Fbsr_cert.Certificate.t) Cache.t;
  (* MKC entries carry the expiry of the certificate they were computed
     from: "a certificate can be verified each time it is used" — caching
     the computed master key must not outlive the certificate's validity. *)
  mkc : (string, string * float) Cache.t; (* name -> (master key, expiry) *)
  counters : counters;
  (* Fetches in flight, so a burst of datagrams to one peer triggers a
     single certificate fetch and a single master-key computation.
     Waiters are newest first. *)
  pending : (string, ((string, error) result -> unit) list ref) Fbsr_util.Pending.t;
  (* Which cache level satisfied the most recent [get_master] completion:
     "mkc" (live master key), "pvc" (cached certificate), or "fetch"
     (resolver round trip, including coalesced waiters).  Read by the
     engine's span instrumentation for hit/miss attribution; the
     continuation runs synchronously from the completing path, so the
     field is accurate inside it. *)
  mutable last_resolution : string;
}

let principal_hash name = Fbsr_util.Crc32.string name
let principal_fingerprint name = Fbsr_util.Fingerprint.string ~seed:0 name

(* Both key-cache levels are 64 sets of 2 ways. *)
let key_cache name =
  Cache.create ~assoc:2 ~sets:64 ~hash:principal_hash
    ~fingerprint:principal_fingerprint ~equal:String.equal ~name ()

let create ~local ~group ~private_value ~ca_public ~ca_hash ~resolver ~clock () =
  {
    local;
    group;
    private_value;
    ca_public;
    ca_hash;
    resolver;
    clock;
    pvc = key_cache "pvc";
    mkc = key_cache "mkc";
    counters =
      { master_key_computations = 0; certificate_fetches = 0;
        certificate_verifications = 0 };
    pending = Fbsr_util.Pending.create ();
    last_resolution = "none";
  }

let local t = t.local
let last_resolution t = t.last_resolution
let counters t = t.counters
let pvc t = t.pvc
let mkc t = t.mkc

(* Registry names relative to the caller's scope (e.g. "fbs.keying").
   The PVC/MKC caches are registered separately by the engine under the
   site-wide "fbs.cache.{pvc,mkc}" prefixes. *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  let c = t.counters in
  register_probe m "master_key_computations" (fun () -> c.master_key_computations);
  register_probe m "certificate_fetches" (fun () -> c.certificate_fetches);
  register_probe m "certificate_verifications" (fun () ->
      c.certificate_verifications)

let find_live_master t name =
  match Cache.find t.mkc name with
  | Some (key, expiry) when t.clock () <= expiry -> Some key
  | Some _ ->
      (* The certificate behind this key has expired: drop the key and the
         stale certificate so resolution fetches a fresh one. *)
      Cache.invalidate t.mkc name;
      Cache.invalidate t.pvc name;
      None
  | None -> None

(* Verify a certificate and compute the master key from it. *)
let master_from_certificate t peer (cert : Fbsr_cert.Certificate.t) =
  t.counters.certificate_verifications <- t.counters.certificate_verifications + 1;
  let name = Principal.to_string peer in
  match
    Fbsr_cert.Certificate.verify ~ca_public:t.ca_public ~hash:t.ca_hash
      ~now:(t.clock ()) ~expected_subject:name cert
  with
  | Error e -> Error (Bad_certificate (Fmt.str "%a" Fbsr_cert.Certificate.pp_verify_error e))
  | Ok () ->
      if cert.Fbsr_cert.Certificate.group <> t.group.Fbsr_crypto.Dh.name then
        Error (Wrong_group cert.Fbsr_cert.Certificate.group)
      else begin
        let peer_public = Fbsr_cert.Certificate.public_nat cert in
        t.counters.master_key_computations <- t.counters.master_key_computations + 1;
        match Fbsr_crypto.Dh.shared_bytes t.group t.private_value peer_public with
        | key -> Ok key
        | exception Invalid_argument m -> Error (Bad_certificate m)
      end

(* Obtain K_{S,D} for a peer, consulting MKC, then PVC, then the resolver.
   The continuation may run immediately (cache hit or synchronous resolver)
   or later (network fetch). *)
let get_master t peer (k : (string, error) result -> unit) =
  let name = Principal.to_string peer in
  match find_live_master t name with
  | Some key ->
      t.last_resolution <- "mkc";
      k (Ok key)
  | None -> (
      let complete result =
        match Fbsr_util.Pending.remove t.pending name with
        | None -> ()
        | Some waiters ->
            List.iter (fun k -> k result) (List.rev !waiters)
      in
      let from_cert cert =
        match master_from_certificate t peer cert with
        | Ok key ->
            Cache.insert t.mkc name (key, cert.Fbsr_cert.Certificate.not_after);
            complete (Ok key)
        | Error e -> complete (Error e)
      in
      (* One resolver call per miss: the resolver (the MKD) owns the
         retransmission policy, and its failure is final for the waiters. *)
      let fetch () =
        t.last_resolution <- "fetch";
        t.counters.certificate_fetches <- t.counters.certificate_fetches + 1;
        t.resolver peer (function
          | Error m -> complete (Error (No_certificate m))
          | Ok cert ->
              Cache.insert t.pvc name cert;
              from_cert cert)
      in
      match Fbsr_util.Pending.find t.pending name with
      | Some waiters -> waiters := k :: !waiters
      | None -> (
          Fbsr_util.Pending.add t.pending name (ref [ k ]);
          match Cache.find t.pvc name with
          | Some cert when t.clock () <= cert.Fbsr_cert.Certificate.not_after ->
              t.last_resolution <- "pvc";
              from_cert cert
          | Some _ ->
              (* Cached certificate has expired: evict and refetch. *)
              Cache.invalidate t.pvc name;
              fetch ()
          | None -> fetch ()))

(* Synchronous variant: usable when the resolver completes inline (local
   directory / pinned certificates).  Returns an error if it would block. *)
let get_master_sync t peer =
  let result = ref (Error (No_certificate "resolver did not complete synchronously")) in
  get_master t peer (fun r -> result := r);
  !result

(* Pin a certificate directly into the PVC ("an alternative is to 'pin'
   certain certificates in the cache upon initialization"). *)
let pin_certificate t cert =
  Cache.insert t.pvc cert.Fbsr_cert.Certificate.subject cert

(* Flow key derivation: K_f = H(sfl | K_{S,D} | S | D) with H = MD5 (the
   paper's implementation), the sfl as 8 big-endian bytes and each
   principal after its 16-bit big-endian length, so the concatenation
   S | D is injective (e.g. "ab"+"c" vs "a"+"bc").  The parts stream
   into one hash context, the sfl and the lengths through an 8-byte
   scratch that the hash copies as it is fed, so no part and no
   concatenation is built. *)
let flow_key ~sfl ~master ~src ~dst =
  let module H = Fbsr_crypto.Md5 in
  let ctx = H.init () and scratch = Bytes.create 8 in
  let view = Bytes.unsafe_to_string scratch in
  let s = Principal.to_string src and d = Principal.to_string dst in
  Bytes.set_int64_be scratch 0 (Sfl.to_int64 sfl);
  H.feed ctx view 0 8;
  H.update ctx master;
  Bytes.set_uint16_be scratch 0 (String.length s land 0xffff);
  H.feed ctx view 0 2;
  H.update ctx s;
  Bytes.set_uint16_be scratch 0 (String.length d land 0xffff);
  H.feed ctx view 0 2;
  H.update ctx d;
  H.final ctx

let pp_error ppf = function
  | No_certificate m -> Fmt.pf ppf "no certificate: %s" m
  | Bad_certificate m -> Fmt.pf ppf "bad certificate: %s" m
  | Wrong_group g -> Fmt.pf ppf "certificate for wrong group %s" g
