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

   Wire format between IP header and payload:
     u8 variant | u8 flags | 8B iv | [8B encrypted datagram key] | 16B mac
   MAC = keyed MD5 over iv | (wire key field) | body, keyed by the master
   key (Direct) or the datagram key (Per_datagram). *)

open Fbsr_netsim

type variant = Direct | Per_datagram

let variant_code = function Direct -> 1 | Per_datagram -> 2

(* Every datagram is encrypted, so the flags byte is always 1.  The MAC
   does not cover it: [unprotect] refuses any other value. *)
let flag_secret = 1

let variant_of_code = function 1 -> Some Direct | 2 -> Some Per_datagram | _ -> None

let mac_len = 16
let header_size variant = 2 + 8 + (match variant with Direct -> 0 | Per_datagram -> 8) + mac_len

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable dropped : int;
  mutable bbs_bytes : int; (* cryptographically-random bytes drawn *)
}

type t = {
  host : Host.t;
  keying : Fbsr_fbs.Keying.t; (* reused for implicit DH master keys *)
  variant : variant;
  bbs : Fbsr_crypto.Bbs.t; (* per-datagram key source *)
  iv_gen : Fbsr_util.Lcg.t;
  counters : counters;
  bypass : Addr.t -> bool;
}

let principal_of_addr addr = Fbsr_fbs.Principal.of_string (Addr.to_string addr)

let master_key_des master =
  Fbsr_crypto.Des.adjust_parity (String.sub (Fbsr_crypto.Md5.digest master) 0 8)

let compute_mac ~key parts =
  Fbsr_crypto.Mac.prefix Fbsr_crypto.Hash.md5 ~key parts

let protect t ~master ~payload =
  let iv = Fbsr_util.Lcg.next_block t.iv_gen 8 in
  match t.variant with
  | Direct ->
      let key = master_key_des master in
      let dk = Fbsr_crypto.Des.of_string key in
      let body = Fbsr_crypto.Des.encrypt_cbc ~iv dk payload in
      let mac = compute_mac ~key [ iv; body ] in
      Printf.sprintf "%c%c" (Char.chr (variant_code Direct)) (Char.chr flag_secret)
      ^ iv ^ mac ^ body
  | Per_datagram ->
      (* Fresh cryptographically random datagram key (BBS), wrapped under
         the master key. *)
      let datagram_key = Fbsr_crypto.Bbs.bytes t.bbs 8 in
      t.counters.bbs_bytes <- t.counters.bbs_bytes + 8;
      let wrap_key = Fbsr_crypto.Des.of_string (master_key_des master) in
      let wrapped = Fbsr_crypto.Des.encrypt_block_bytes wrap_key datagram_key in
      let dk = Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity datagram_key) in
      let body = Fbsr_crypto.Des.encrypt_cbc ~iv dk payload in
      let mac = compute_mac ~key:datagram_key [ iv; wrapped; body ] in
      Printf.sprintf "%c%c" (Char.chr (variant_code Per_datagram)) (Char.chr flag_secret)
      ^ iv ^ wrapped ^ mac ^ body

type error = Truncated | Bad_variant | Bad_flags | Bad_mac | Decrypt_error

let unprotect (_ : t) ~master ~wire =
  let open Fbsr_util in
  let r = Byte_reader.of_string wire in
  match
    let variant = Byte_reader.u8 r in
    let flags = Byte_reader.u8 r in
    let iv = Byte_reader.bytes r 8 in
    (variant, flags, iv)
  with
  | exception Byte_reader.Truncated -> Error Truncated
  | variant, flags, iv -> (
      match variant_of_code variant with
      | None -> Error Bad_variant
      | Some _ when flags <> flag_secret -> Error Bad_flags
      | Some Direct -> (
          let key = master_key_des master in
          match
            let mac = Byte_reader.bytes r mac_len in
            let body = Byte_reader.rest r in
            (mac, body)
          with
          | exception Byte_reader.Truncated -> Error Truncated
          | mac, body ->
              if not (Fbsr_crypto.Ct.equal mac (compute_mac ~key [ iv; body ])) then
                Error Bad_mac
              else
                let dk = Fbsr_crypto.Des.of_string key in
                match Fbsr_crypto.Des.decrypt_cbc ~iv dk body with
                | plaintext -> Ok plaintext
                | exception Invalid_argument _ -> Error Decrypt_error)
      | Some Per_datagram -> (
          match
            let wrapped = Byte_reader.bytes r 8 in
            let mac = Byte_reader.bytes r mac_len in
            let body = Byte_reader.rest r in
            (wrapped, mac, body)
          with
          | exception Byte_reader.Truncated -> Error Truncated
          | wrapped, mac, body ->
              let wrap_key = Fbsr_crypto.Des.of_string (master_key_des master) in
              let datagram_key = Fbsr_crypto.Des.decrypt_block_bytes wrap_key wrapped in
              if
                not
                  (Fbsr_crypto.Ct.equal mac
                     (compute_mac ~key:datagram_key [ iv; wrapped; body ]))
              then Error Bad_mac
              else
                let dk =
                  Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity datagram_key)
                in
                match Fbsr_crypto.Des.decrypt_cbc ~iv dk body with
                | plaintext -> Ok plaintext
                | exception Invalid_argument _ -> Error Decrypt_error))

(* Both hooks answer once the master key is in hand: at once on an MKC
   hit, else when the certificate fetch completes. *)
let output_hook t (h : Ipv4.header) payload k =
  if t.bypass h.dst then k (Host.Pass (h, payload))
  else
    Fbsr_fbs.Keying.get_master t.keying (principal_of_addr h.dst) (function
      | Ok master ->
          t.counters.sent <- t.counters.sent + 1;
          k (Host.Pass (h, protect t ~master ~payload))
      | Error _ ->
          t.counters.dropped <- t.counters.dropped + 1;
          k (Host.Drop "host-pair keying failure"))

let input_hook t (h : Ipv4.header) payload k =
  if t.bypass h.src then k (Host.Pass (h, payload))
  else
    Fbsr_fbs.Keying.get_master t.keying (principal_of_addr h.src) (function
      | Ok master -> (
          match unprotect t ~master ~wire:payload with
          | Ok plaintext ->
              t.counters.received <- t.counters.received + 1;
              k
                (Host.Pass
                   ( { h with Ipv4.total_length = Ipv4.header_length h + String.length plaintext },
                     plaintext ))
          | Error _ ->
              t.counters.dropped <- t.counters.dropped + 1;
              k (Host.Drop "host-pair verification failed"))
      | Error _ ->
          t.counters.dropped <- t.counters.dropped + 1;
          k (Host.Drop "host-pair keying failure"))

let install ?(variant = Direct) ?(bypass = fun _ -> false)
    ?(bbs_modulus_bits = 128) ~private_value ~group ~ca_public ~ca_hash ~resolver host =
  let local = principal_of_addr (Host.addr host) in
  let keying =
    Fbsr_fbs.Keying.create ~local ~group ~private_value ~ca_public ~ca_hash ~resolver
      ~clock:(fun () -> Host.now host)
      ()
  in
  let rng = Fbsr_util.Rng.create (Fbsr_fbs.Principal.hash local) in
  let t =
    {
      host;
      keying;
      variant;
      bbs = Fbsr_crypto.Bbs.create ~modulus_bits:bbs_modulus_bits rng ~seed:(Fbsr_util.Rng.bytes rng 16);
      iv_gen = Fbsr_util.Lcg.create (Fbsr_fbs.Principal.hash local lxor 0xabcd);
      counters = { sent = 0; received = 0; dropped = 0; bbs_bytes = 0 };
      bypass;
    }
  in
  Host.set_output_hook host (output_hook t);
  Host.set_input_hook host (input_hook t);
  Minitcp.set_mss_reduction host (header_size variant + 8);
  t

let counters t = t.counters
