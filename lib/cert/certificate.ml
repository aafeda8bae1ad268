(* Public-value certificates.

   The paper (Section 5.2): "the public values are made available and
   authenticated via a distributed certification hierarchy (e.g., X.509
   certificates) or a secure DNS service".  We implement a compact binary
   certificate binding a principal name to its Diffie-Hellman public value,
   signed by a certificate authority's RSA key, with a validity interval.

   Wire format (all integers big-endian):
     u16 subject_len | subject bytes
     u16 group_len   | group name bytes
     u16 public_len  | DH public value bytes
     u64 not_before  | u64 not_after   (seconds, simulated epoch)
     u16 sig_len     | RSA signature over everything above                *)

open Fbsr_util

type t = {
  subject : string; (* principal name, e.g. an IP address string *)
  group : string; (* DH group name the public value belongs to *)
  public_value : string; (* big-endian DH public value *)
  not_before : float;
  not_after : float;
  signature : string;
}

let tbs_bytes ~subject ~group ~public_value ~not_before ~not_after =
  let w = Byte_writer.create () in
  Byte_writer.u16 w (String.length subject);
  Byte_writer.bytes w subject;
  Byte_writer.u16 w (String.length group);
  Byte_writer.bytes w group;
  Byte_writer.u16 w (String.length public_value);
  Byte_writer.bytes w public_value;
  Byte_writer.u64 w (Int64.of_float not_before);
  Byte_writer.u64 w (Int64.of_float not_after);
  Byte_writer.contents w

let encode c =
  let tbs =
    tbs_bytes ~subject:c.subject ~group:c.group ~public_value:c.public_value
      ~not_before:c.not_before ~not_after:c.not_after
  in
  let w = Byte_writer.create () in
  Byte_writer.bytes w tbs;
  Byte_writer.u16 w (String.length c.signature);
  Byte_writer.bytes w c.signature;
  Byte_writer.contents w

exception Bad_certificate of string

let decode raw =
  let r = Byte_reader.of_string raw in
  try
    let subject = Byte_reader.bytes r (Byte_reader.u16 r) in
    let group = Byte_reader.bytes r (Byte_reader.u16 r) in
    let public_value = Byte_reader.bytes r (Byte_reader.u16 r) in
    let not_before = Int64.to_float (Byte_reader.u64 r) in
    let not_after = Int64.to_float (Byte_reader.u64 r) in
    let signature = Byte_reader.bytes r (Byte_reader.u16 r) in
    { subject; group; public_value; not_before; not_after; signature }
  with Byte_reader.Truncated -> raise (Bad_certificate "truncated")

let sign ~ca_key ~subject ~group ~public_value ~not_before ~not_after =
  let tbs = tbs_bytes ~subject ~group ~public_value ~not_before ~not_after in
  let signature = Fbsr_crypto.Rsa.sign ca_key tbs in
  { subject; group; public_value; not_before; not_after; signature }

type verify_error =
  | Bad_signature
  | Expired of float (* certificate not valid at this time *)
  | Wrong_subject of string

let verify ~ca_public ~now ?expected_subject c =
  let tbs =
    tbs_bytes ~subject:c.subject ~group:c.group ~public_value:c.public_value
      ~not_before:c.not_before ~not_after:c.not_after
  in
  if not (Fbsr_crypto.Rsa.verify ca_public tbs ~signature:c.signature) then
    Error Bad_signature
  else if now < c.not_before || now > c.not_after then Error (Expired now)
  else
    match expected_subject with
    | Some s when s <> c.subject -> Error (Wrong_subject c.subject)
    | _ -> Ok ()

let public_nat c = Fbsr_bignum.Nat.of_bytes_be c.public_value

let pp_verify_error ppf = function
  | Bad_signature -> Fmt.string ppf "bad signature"
  | Expired t -> Fmt.pf ppf "not valid at time %.0f" t
  | Wrong_subject s -> Fmt.pf ppf "certificate names %S" s
