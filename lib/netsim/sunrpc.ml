(* A Sun RPC-style remote procedure call layer over UDP.

   The paper's opening sentence names RPC alongside IP and UDP as the
   datagram services whose success motivates FBS.  This module is that
   client: request/reply with transaction IDs, at-least-once retry on a
   backed-off timer (each call is a [Request] keyed by its XID),
   duplicate-reply suppression — the classic ONC RPC shape (RFC
   1057, the paper's [26]), simplified to the parts that matter for a
   datagram-semantics demonstration.  Run over an FBS-enabled host it gets
   per-conversation protection with zero extra messages; run over a
   KDC-enabled host it pays a setup round trip first (the Section 2.1
   contrast, executable).

   Wire format:
     call:  u32 xid | u8 0 | u32 prog | u32 proc | payload
     reply: u32 xid | u8 1 | u8 status (0 ok, 1 no such proc) | payload  *)

open Fbsr_util

type procedure = string -> string (* argument bytes -> result bytes *)

(* --- Server --- *)

module Server = struct
  type t = {
    host : Host.t;
    port : int;
    programs : (int * int, procedure) Hashtbl.t;
    mutable calls_served : int;
  }

  let register t ~prog ~proc f = Hashtbl.replace t.programs (prog, proc) f

  let handle t ~src ~src_port raw =
    let r = Byte_reader.of_string raw in
    match
      let xid = Byte_reader.u32_int r in
      let kind = Byte_reader.u8 r in
      let prog = Byte_reader.u32_int r in
      let proc = Byte_reader.u32_int r in
      let arg = Byte_reader.rest r in
      (xid, kind, prog, proc, arg)
    with
    | exception Byte_reader.Truncated -> ()
    | xid, 0, prog, proc, arg ->
        let status, result =
          match Hashtbl.find_opt t.programs (prog, proc) with
          | Some f ->
              t.calls_served <- t.calls_served + 1;
              (0, f arg)
          | None -> (1, "")
        in
        let w = Byte_writer.create () in
        Byte_writer.u32_int w xid;
        Byte_writer.u8 w 1;
        Byte_writer.u8 w status;
        Byte_writer.bytes w result;
        Udp_stack.send t.host ~src_port:t.port ~dst:src ~dst_port:src_port
          (Byte_writer.contents w)
    | _ -> ()

  let install ?(port = 111) host =
    let t = { host; port; programs = Hashtbl.create 8; calls_served = 0 } in
    Udp_stack.listen host ~port (fun ~src ~src_port raw -> handle t ~src ~src_port raw);
    t

  let calls_served t = t.calls_served
end

(* --- Client --- *)

type error = Timed_out | No_such_procedure

(* The client's retry schedule: a 1 s first timeout, backed off by the
   [Request] table to 1, 2, 4, 8 s over 4 attempts. *)
let local_port = 700
let timeout = 1.0
let max_attempts = 4

type t = {
  host : Host.t;
  calls : (int, unit, (string, error) result) Request.t; (* by XID *)
  mutable next_xid : int;
  mutable duplicate_replies : int;
}

let handle_reply t raw =
  let r = Byte_reader.of_string raw in
  match
    let xid = Byte_reader.u32_int r in
    let kind = Byte_reader.u8 r in
    let status = Byte_reader.u8 r in
    let result = Byte_reader.rest r in
    (xid, kind, status, result)
  with
  | exception Byte_reader.Truncated -> ()
  | xid, 1, status, result ->
      if
        not
          (Request.complete t.calls xid
             (if status = 0 then Ok result else Error No_such_procedure))
      then
        (* A retransmitted call produced a second reply: the classic
           at-least-once duplicate, absorbed here. *)
        t.duplicate_replies <- t.duplicate_replies + 1
  | _ -> ()

let create host =
  let t =
    {
      host;
      calls =
        Request.create ~seed:0x5c11 ~timeout ~max_attempts ~timed_out:(Error Timed_out)
          host;
      next_xid = 0x10000;
      duplicate_replies = 0;
    }
  in
  Udp_stack.listen host ~port:local_port (fun ~src:_ ~src_port:_ raw ->
      handle_reply t raw);
  t

let call t ~server ~server_port ~prog ~proc arg k =
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  let w = Byte_writer.create () in
  Byte_writer.u32_int w xid;
  Byte_writer.u8 w 0;
  Byte_writer.u32_int w prog;
  Byte_writer.u32_int w proc;
  Byte_writer.bytes w arg;
  let call_bytes = Byte_writer.contents w in
  Request.start t.calls xid ()
    ~send:(fun _ ->
      Udp_stack.send t.host ~src_port:local_port ~dst:server ~dst_port:server_port
        call_bytes)
    k

let retransmissions t = Request.retransmissions t.calls
let duplicate_replies t = t.duplicate_replies
