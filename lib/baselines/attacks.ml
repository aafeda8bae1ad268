(* Attack harness: the adversary of Section 6.

   An attacker on the shared segment can capture every frame (tcpdump-style
   tap), re-inject captured frames (replay), and splice pieces of captured
   datagrams together (cut-and-paste).  The tests and the attack-demo
   example use this harness to demonstrate:

   - replay inside the freshness window succeeds at the FBS layer (the
     paper concedes this; higher layers must finish the job), outside the
     window it is rejected;
   - cut-and-paste across FBS flows fails (per-flow keys), while against
     direct host-pair keying it succeeds (one key per host pair);
   - the Section 7.1 port-reuse attack against flow continuation. *)

open Fbsr_netsim

type capture = { mutable frames : (float * string) list (* newest first *) }

let tap medium =
  let c = { frames = [] } in
  Medium.add_sniffer medium (fun time raw -> c.frames <- (time, raw) :: c.frames);
  c

let frames c = List.rev c.frames
let clear c = c.frames <- []

let matching c ~pred = List.filter pred (frames c)

(* Frames between a given host pair, in capture order. *)
let between c ~src ~dst =
  matching c ~pred:(fun (_, raw) ->
      match Ipv4.decode raw with
      | h, _ -> Addr.equal h.Ipv4.src src && Addr.equal h.Ipv4.dst dst
      | exception Ipv4.Bad_packet _ -> false)

(* Inject a raw IP packet onto the segment — the attacker transmits it
   toward the destination in the IP header (spoofed sources welcome). *)
let inject medium raw =
  match Ipv4.decode raw with
  | h, _ -> Medium.transmit medium ~dst:h.Ipv4.dst raw
  | exception Ipv4.Bad_packet m -> invalid_arg ("Attacks.inject: " ^ m)

let replay = inject

(* Cut-and-paste against FBS: keep packet A's IP header and FBS header,
   replace the protected body with packet B's.  Returns None if either
   packet does not parse as FBS. *)
let splice_fbs ~header_from ~body_from =
  match (Ipv4.decode header_from, Ipv4.decode body_from) with
  | exception Ipv4.Bad_packet _ -> None
  | (ha, pa), (_, pb) -> (
      match (Fbsr_fbs.Header.decode pa, Fbsr_fbs.Header.decode pb) with
      | Ok (fa, _), Ok (_, body_b) ->
          let wire = Fbsr_fbs.Header.encode fa ^ body_b in
          let h =
            { ha with Ipv4.total_length = Ipv4.header_length ha + String.length wire }
          in
          Some (Ipv4.encode h wire)
      | _ -> None)

(* Cut-and-paste against host-pair keying: B's whole protected payload
   (scheme head and sealed tail) under A's IP header.  The seal binds
   nothing of the IP header, and one master key covers every datagram
   between the two hosts, so the MAC still verifies and B's payload is
   delivered again under A's header. *)
let splice_hostpair ~envelope_from ~body_from =
  match (Ipv4.decode envelope_from, Ipv4.decode body_from) with
  | exception Ipv4.Bad_packet _ -> None
  | (ha, _), (hb, pb) ->
      if not (Addr.equal ha.Ipv4.src hb.Ipv4.src && Addr.equal ha.Ipv4.dst hb.Ipv4.dst)
      then None (* different host pair: different master key; splice is moot *)
      else begin
        let h = { ha with Ipv4.total_length = Ipv4.header_length ha + String.length pb } in
        Some (Ipv4.encode h pb)
      end

(* Corrupt one byte of the protected body (integrity test). *)
let flip_byte ~offset raw =
  if offset >= String.length raw then invalid_arg "Attacks.flip_byte: out of range";
  let b = Bytes.of_string raw in
  Bytes.set b offset (Char.chr (Char.code (Bytes.get b offset) lxor 0x01));
  (* Fix the IP header checksum so the corruption reaches the security
     layer instead of being dropped by IP. *)
  match Ipv4.decode (Bytes.to_string b) with
  | h, payload -> Ipv4.encode h payload
  | exception Ipv4.Bad_packet _ ->
      let h, payload = Ipv4.decode raw in
      let pb = Bytes.of_string payload in
      let off = offset - Ipv4.header_size in
      if off < 0 || off >= Bytes.length pb then raw
      else begin
        Bytes.set pb off (Char.chr (Char.code (Bytes.get pb off) lxor 0x01));
        Ipv4.encode h (Bytes.to_string pb)
      end
