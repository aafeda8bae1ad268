(* The certificate authority as a network service: a host that answers MKD
   certificate requests over UDP.  This is the "certificate authority on
   the network" of Section 5.3; in the paper's deployment picture it could
   equally be a secure DNS server. *)

open Fbsr_netsim

type t = {
  host : Host.t;
  authority : Fbsr_cert.Authority.t;
  port : int;
  mutable requests_served : int;
  mutable requests_failed : int;
}

let serve t ~src ~src_port raw =
  match Mkd_protocol.decode raw with
  | exception Mkd_protocol.Bad_message _ -> t.requests_failed <- t.requests_failed + 1
  | Request name ->
      let reply =
        match Fbsr_cert.Authority.lookup t.authority name with
        | Some cert ->
            t.requests_served <- t.requests_served + 1;
            Mkd_protocol.Certificate cert
        | None ->
            t.requests_failed <- t.requests_failed + 1;
            Mkd_protocol.Failure
              { subject = name; reason = "no certificate for " ^ name }
      in
      Udp_stack.send t.host ~src_port:t.port ~dst:src ~dst_port:src_port
        (Mkd_protocol.encode reply)
  | Certificate _ | Failure _ ->
      (* Only requests are valid inbound. *)
      t.requests_failed <- t.requests_failed + 1

let install ?(port = Mkd_protocol.default_port) ~authority host =
  let t = { host; authority; port; requests_served = 0; requests_failed = 0 } in
  Udp_stack.listen host ~port (fun ~src ~src_port raw -> serve t ~src ~src_port raw);
  t

let requests_served t = t.requests_served
let port t = t.port
