(* Wire protocol between a host's master key daemon (MKD) and the
   certificate authority server.

   The paper (Section 5.3): "In case of a cache miss, the public value
   certificate must be fetched from some certificate authority on the
   network.  The fetch request should not and need not be secure" —
   securing it would create a circular dependency, and the certificate is
   verified on receipt anyway.  These messages therefore travel through the
   secure flow *bypass*.

   Request:  "FBSC" u8 version=2 u8 op=1 u16 name_len | name
   Response: "FBSC" u8 version=2 u8 op=2 u16 cert_len | cert
             "FBSC" u8 version=2 u8 op=3 u16 name_len | name
                                         u16 msg_len  | error message

   A failure names the request it answers, so an MKD with several
   fetches in flight fails the right one. *)

open Fbsr_util

let magic = "FBSC"
let version = 2

type message =
  | Request of string (* principal name *)
  | Certificate of Fbsr_cert.Certificate.t
  | Failure of { subject : string; reason : string }

let encode msg =
  let w = Byte_writer.create () in
  Byte_writer.bytes w magic;
  Byte_writer.u8 w version;
  (match msg with
  | Request name ->
      Byte_writer.u8 w 1;
      Byte_writer.u16 w (String.length name);
      Byte_writer.bytes w name
  | Certificate cert ->
      let raw = Fbsr_cert.Certificate.encode cert in
      Byte_writer.u8 w 2;
      Byte_writer.u16 w (String.length raw);
      Byte_writer.bytes w raw
  | Failure { subject; reason } ->
      Byte_writer.u8 w 3;
      Byte_writer.u16 w (String.length subject);
      Byte_writer.bytes w subject;
      Byte_writer.u16 w (String.length reason);
      Byte_writer.bytes w reason);
  Byte_writer.contents w

exception Bad_message of string

let decode raw =
  let r = Byte_reader.of_string raw in
  try
    if Byte_reader.bytes r 4 <> magic then raise (Bad_message "bad magic");
    if Byte_reader.u8 r <> version then raise (Bad_message "bad version");
    let op = Byte_reader.u8 r in
    let len = Byte_reader.u16 r in
    let body = Byte_reader.bytes r len in
    match op with
    | 1 -> Request body
    | 2 -> (
        match Fbsr_cert.Certificate.decode body with
        | cert -> Certificate cert
        | exception Fbsr_cert.Certificate.Bad_certificate m -> raise (Bad_message m))
    | 3 ->
        let reason = Byte_reader.bytes r (Byte_reader.u16 r) in
        Failure { subject = body; reason }
    | n -> raise (Bad_message (Printf.sprintf "unknown op %d" n))
  with Byte_reader.Truncated -> raise (Bad_message "truncated")

let default_port = 562 (* an unassigned low port for the key service *)
