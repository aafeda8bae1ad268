(* Host-pair keying baseline (paper, Section 2.2) — the SKIP-style scheme
   FBS is compared against in Section 7.4.

   Every pair of hosts shares an implicit Diffie-Hellman master key; no
   setup messages, no hard state — but the unit of protection is the host
   pair, not the flow.  Two variants, both from Section 2.2:

   - [Direct]: the master key encrypts the traffic directly.  This is the
     scheme with the known weaknesses the paper lists: compromise of the
     master key exposes *all* traffic between the two hosts (past and
     future), and "basic host-pair keying can suffer from a cut-and-paste
     attack" — any datagram's ciphertext can be spliced into any other
     datagram between the same hosts, because they all share one key.
     (A MAC keyed by the same shared key still verifies after the splice.)

   - [Per_datagram]: the master key encrypts a fresh per-datagram key which
     encrypts the data.  Fixes cut-and-paste across datagrams, but the
     per-datagram keys must be cryptographically random — so this variant
     honestly pays for a Blum-Blum-Shub draw per datagram, the bottleneck
     the paper cites ("cryptographically secure random number generators
     such as the quadratic residue generator can be a performance
     bottleneck").

   Scheme head: u8 variant | u8 flags.  The sealed tail (see [Sealed])
   carries the datagram key wrapped under the master key as its extra
   field (Per_datagram), and is keyed by the master key (Direct) or the
   datagram key (Per_datagram). *)

open Fbsr_netsim
open Fbsr_crypto

type variant = Direct | Per_datagram

let variant_code = function Direct -> 1 | Per_datagram -> 2
let variant_of_code = function 1 -> Some Direct | 2 -> Some Per_datagram | _ -> None
let wrapped_len = function Direct -> 0 | Per_datagram -> 8

type t = {
  keying : Fbsr_fbs.Keying.t; (* reused for implicit DH master keys *)
  variant : variant;
  bbs : Bbs.t; (* per-datagram key source *)
  ivs : Fbsr_util.Lcg.t;
  counters : Sealed.counters;
  mutable bbs_bytes : int; (* cryptographically-random bytes drawn *)
}

let principal_of_addr addr = Fbsr_fbs.Principal.of_string (Addr.to_string addr)
let master_key_des master = Des.adjust_parity (String.sub (Md5.digest master) 0 8)

let direct_key master =
  let key = master_key_des master in
  { Sealed.des = Des.of_string key; mac = key }

let datagram_key key = { Sealed.des = Des.of_string (Des.adjust_parity key); mac = key }

let protect t master payload =
  let head =
    Printf.sprintf "%c%c" (Char.chr (variant_code t.variant)) (Char.chr Sealed.flags)
  in
  match t.variant with
  | Direct -> Sealed.seal t.ivs (direct_key master) ~head ~extra:"" payload
  | Per_datagram ->
      (* Fresh cryptographically random datagram key (BBS), wrapped under
         the master key. *)
      let key = Bbs.bytes t.bbs 8 in
      t.bbs_bytes <- t.bbs_bytes + 8;
      let wrapped = Des.encrypt_block_bytes (Des.of_string (master_key_des master)) key in
      Sealed.seal t.ivs (datagram_key key) ~head ~extra:wrapped payload

let unprotect (_ : t) ~master ~wire =
  Result.bind
    (Sealed.frame wire (fun r ->
         let code = Fbsr_util.Byte_reader.u8 r in
         let flags = Fbsr_util.Byte_reader.u8 r in
         match variant_of_code code with
         | None -> Error Sealed.Bad_variant
         | Some variant -> Ok (flags, variant, wrapped_len variant)))
    (fun (variant, tail) ->
      let key =
        match variant with
        | Direct -> direct_key master
        | Per_datagram ->
            datagram_key
              (Des.decrypt_block_bytes (Des.of_string (master_key_des master))
                 (Sealed.extra tail))
      in
      Sealed.open_ key tail)

let install ?(variant = Direct) ~private_value ~group ~ca_public ~ca_hash ~resolver host =
  let local = principal_of_addr (Host.addr host) in
  let keying =
    Fbsr_fbs.Keying.create ~local ~group ~private_value ~ca_public ~ca_hash ~resolver
      ~clock:(fun () -> Host.now host)
      ()
  in
  let rng = Fbsr_util.Rng.create (Fbsr_fbs.Principal.hash local) in
  let t =
    {
      keying;
      variant;
      bbs = Bbs.create ~modulus_bits:128 rng ~seed:(Fbsr_util.Rng.bytes rng 16);
      ivs = Fbsr_util.Lcg.create (Fbsr_fbs.Principal.hash local lxor 0xabcd);
      counters = { sent = 0; received = 0; dropped = 0 };
      bbs_bytes = 0;
    }
  in
  (* No setup and no bypass: each datagram waits only for its peer's
     master key, at once on an MKC hit, else until the certificate fetch
     completes. *)
  let master addr = Fbsr_fbs.Keying.get_master keying (principal_of_addr addr) in
  let never _ _ = false in
  Host.set_output_hook host
    (Sealed.output t.counters ~bypass:never ~seal:(protect t) (fun h -> master h.Ipv4.dst));
  Host.set_input_hook host
    (Sealed.input t.counters ~bypass:never (fun h payload k ->
         master h.Ipv4.src (function
           | Ok master -> k (unprotect t ~master ~wire:payload)
           | Error _ -> k (Error Sealed.Unknown_key))));
  Minitcp.set_mss_reduction host (Sealed.overhead ~head:(2 + wrapped_len variant));
  t

let counters t = t.counters
let bbs_bytes t = t.bbs_bytes
