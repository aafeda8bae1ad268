(* An IP router forwarding between segments.

   The paper makes a point of FBS's transparency to the network: "To IP,
   the FBS header is simply a part of the higher layer header.  A
   forwarding router also will not see anything 'strange' about FBS
   processed IP packets."  This router lets tests demonstrate exactly
   that: FBS datagrams traverse it like any other IP traffic, including
   being fragmented onto a smaller-MTU segment, and still verify at the
   destination.

   Forwarding: longest-prefix match over the interfaces' subnets; TTL
   decrement (drop at zero); per-interface MTU with standard DF
   semantics.  It is built only from what Fbsr_netsim exports: it
   attaches to each segment as a station and transmits every forwarded
   fragment on the outgoing one. *)

open Fbsr_netsim

type interface = {
  addr : Addr.t;
  medium : Medium.t;
  mtu : int;
  prefix : int; (* the subnet this interface fronts: addr/prefix *)
}

type stats = {
  mutable forwarded : int;
  mutable dropped_ttl : int;
  mutable dropped_no_route : int;
  mutable dropped_df : int;
  mutable dropped_bad : int;
  mutable fragmented : int;
}

type t = {
  name : string;
  mutable interfaces : interface array;
  stats : stats;
}

let create ~name () =
  {
    name;
    interfaces = [||];
    stats =
      {
        forwarded = 0;
        dropped_ttl = 0;
        dropped_no_route = 0;
        dropped_df = 0;
        dropped_bad = 0;
        fragmented = 0;
      };
  }

let stats t = t.stats

(* Longest-prefix match across the interfaces' subnets. *)
let route_for t dst =
  let best = ref None in
  Array.iteri
    (fun i iface ->
      if Addr.in_subnet ~network:iface.addr ~prefix:iface.prefix dst then
        match !best with
        | Some (p, _) when p >= iface.prefix -> ()
        | _ -> best := Some (iface.prefix, i))
    t.interfaces;
  Option.map snd !best

let is_local_addr t dst =
  Array.exists (fun iface -> Addr.equal iface.addr dst) t.interfaces

let forward t raw =
  match Ipv4.decode raw with
  | exception Ipv4.Bad_packet _ -> t.stats.dropped_bad <- t.stats.dropped_bad + 1
  | h, payload ->
      if is_local_addr t h.Ipv4.dst then
        (* Routers in this simulation do not terminate traffic. *)
        ()
      else if h.Ipv4.ttl <= 1 then t.stats.dropped_ttl <- t.stats.dropped_ttl + 1
      else begin
        match route_for t h.Ipv4.dst with
        | None -> t.stats.dropped_no_route <- t.stats.dropped_no_route + 1
        | Some idx -> (
            let out = t.interfaces.(idx) in
            let h = { h with Ipv4.ttl = h.Ipv4.ttl - 1 } in
            match Frag.fragment h payload ~mtu:out.mtu with
            | exception Frag.Cannot_fragment ->
                t.stats.dropped_df <- t.stats.dropped_df + 1
            | fragments ->
                if List.length fragments > 1 then
                  t.stats.fragmented <- t.stats.fragmented + 1;
                t.stats.forwarded <- t.stats.forwarded + 1;
                List.iter
                  (fun (fh, fp) ->
                    Medium.transmit out.medium ~dst:fh.Ipv4.dst (Ipv4.encode fh fp))
                  fragments)
      end

let attach t ~addr ~prefix ?(mtu = 1500) medium =
  let iface = { addr; medium; mtu; prefix } in
  t.interfaces <- Array.append t.interfaces [| iface |];
  Medium.attach medium ~addr ~deliver:(fun raw -> forward t raw);
  Array.length t.interfaces - 1
