(* Gateway-to-gateway FBS (paper, Section 7.1): "At the IP level,
   host/gateway to host/gateway security can be easily provided.  This can
   be done by encrypting all datagrams going from one host/gateway to
   another."

   A security gateway fronts a trusted site segment.  Traffic from inside
   hosts to remote sites is encapsulated whole (IP-in-IP, protocol 4) in a
   gateway-to-gateway datagram; the gateway's own FBS stack then protects
   the tunnel.  Inside hosts run no FBS at all, and since the tunneled
   conversations have no ports visible to the gateway's classifier, the
   flows are gateway-pair-level — precisely the coarse policy the paper
   describes (finer conversation-level protection is what the rest of
   Section 7.1 refines).

   The receiving gateway decapsulates after FBS verification and delivers
   the untouched inner datagram onto its own site segment. *)

open Fbsr_netsim

let protocol_ipip = 4

type peer_route = { network : Addr.t; prefix : int; gateway : Addr.t }

type counters = {
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable no_route : int;
  mutable bad_inner : int;
}

type t = {
  inside : Medium.t;
  outer : Host.t; (* FBS-protected host on the backbone *)
  mutable peers : peer_route list;
  counters : counters;
}

let route_for t dst =
  List.find_opt (fun p -> Addr.in_subnet ~network:p.network ~prefix:p.prefix dst) t.peers

(* Frames from the inside segment addressed off-site arrive here (inside
   hosts use the gateway's inside address as their default gateway). *)
let from_inside t raw =
  match Ipv4.decode raw with
  | exception Ipv4.Bad_packet _ -> t.counters.bad_inner <- t.counters.bad_inner + 1
  | h, _ -> (
      match route_for t h.Ipv4.dst with
      | Some peer ->
          t.counters.encapsulated <- t.counters.encapsulated + 1;
          (* The whole inner datagram becomes the payload of a
             gateway-to-gateway datagram; the outer host's FBS hook then
             protects it like any other payload. *)
          Host.ip_output t.outer ~protocol:protocol_ipip ~dst:peer.gateway raw
      | None -> t.counters.no_route <- t.counters.no_route + 1)

(* Tunnel arrivals: FBS verification already happened in the outer host's
   input hook; [payload] is the inner datagram, delivered onto the site
   segment unchanged. *)
let from_tunnel t (_ : Host.t) (_ : Ipv4.header) payload =
  match Ipv4.decode payload with
  | exception Ipv4.Bad_packet _ -> t.counters.bad_inner <- t.counters.bad_inner + 1
  | inner, _ ->
      t.counters.decapsulated <- t.counters.decapsulated + 1;
      Medium.transmit t.inside ~dst:inner.Ipv4.dst payload

let create ~inside ~inside_addr ~outer () =
  let t =
    {
      inside;
      outer;
      peers = [];
      counters = { encapsulated = 0; decapsulated = 0; no_route = 0; bad_inner = 0 };
    }
  in
  (* The gateway's inside interface accepts every frame handed to its
     address and tunnels the off-site ones. *)
  Medium.attach inside ~addr:inside_addr ~deliver:(fun raw -> from_inside t raw);
  Host.register_protocol outer ~protocol:protocol_ipip (from_tunnel t);
  t

let add_peer t ~network ~prefix ~gateway =
  t.peers <- { network; prefix; gateway } :: t.peers

let counters t = t.counters
