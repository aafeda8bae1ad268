(* Certificate chains — the "distributed certification hierarchy" of the
   paper's Section 5.2 ("the public values are made available and
   authenticated via a distributed certification hierarchy (e.g., X.509
   certificates)").

   The single [Authority] models one CA; real deployments delegate: a root
   signs site authorities, a site authority signs host certificates.  A
   *CA certificate* binds an authority's RSA public key under its parent's
   signature; a chain is validated root-down, then the leaf public-value
   certificate is checked against the last authority in the chain.

   CA certificate wire format:
     u16 name_len | name
     u16 n_len    | RSA modulus (big-endian)
     u16 e_len    | RSA exponent
     u64 not_before | u64 not_after
     u16 sig_len  | parent RSA signature over everything above           *)

open Fbsr_util

type ca_cert = {
  name : string;
  public : Fbsr_crypto.Rsa.public_key;
  not_before : float;
  not_after : float;
  signature : string;
}

let tbs_bytes ~name ~public ~not_before ~not_after =
  let open Fbsr_bignum in
  let n = Nat.to_bytes_be public.Fbsr_crypto.Rsa.n in
  let e = Nat.to_bytes_be public.Fbsr_crypto.Rsa.e in
  let w = Byte_writer.create () in
  Byte_writer.u16 w (String.length name);
  Byte_writer.bytes w name;
  Byte_writer.u16 w (String.length n);
  Byte_writer.bytes w n;
  Byte_writer.u16 w (String.length e);
  Byte_writer.bytes w e;
  Byte_writer.u64 w (Int64.of_float not_before);
  Byte_writer.u64 w (Int64.of_float not_after);
  Byte_writer.contents w

let sign_ca ~parent_key ~hash ~name ~public ~not_before ~not_after =
  let tbs = tbs_bytes ~name ~public ~not_before ~not_after in
  {
    name;
    public;
    not_before;
    not_after;
    signature = Fbsr_crypto.Rsa.sign parent_key ~hash tbs;
  }

let encode c =
  let tbs =
    tbs_bytes ~name:c.name ~public:c.public ~not_before:c.not_before
      ~not_after:c.not_after
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
    let name = Byte_reader.bytes r (Byte_reader.u16 r) in
    let n = Fbsr_bignum.Nat.of_bytes_be (Byte_reader.bytes r (Byte_reader.u16 r)) in
    let e = Fbsr_bignum.Nat.of_bytes_be (Byte_reader.bytes r (Byte_reader.u16 r)) in
    let not_before = Int64.to_float (Byte_reader.u64 r) in
    let not_after = Int64.to_float (Byte_reader.u64 r) in
    let signature = Byte_reader.bytes r (Byte_reader.u16 r) in
    { name; public = { Fbsr_crypto.Rsa.n; e }; not_before; not_after; signature }
  with Byte_reader.Truncated -> raise (Bad_certificate "truncated CA certificate")

type verify_error =
  | Bad_link of string (* which link's signature failed *)
  | Link_expired of string
  | Leaf_invalid of Certificate.verify_error

(* Validate root-down: [root] is trusted out of band; each CA certificate
   must be signed by its predecessor; the leaf public-value certificate is
   checked against the final authority key. *)
let verify_chain ~root ~hash ~now ~(intermediates : ca_cert list) ?expected_subject
    (leaf : Certificate.t) =
  let rec walk key = function
    | [] -> Ok key
    | c :: rest ->
        let tbs =
          tbs_bytes ~name:c.name ~public:c.public ~not_before:c.not_before
            ~not_after:c.not_after
        in
        if not (Fbsr_crypto.Rsa.verify key ~hash tbs ~signature:c.signature) then
          Error (Bad_link c.name)
        else if now < c.not_before || now > c.not_after then Error (Link_expired c.name)
        else walk c.public rest
  in
  match walk root intermediates with
  | Error e -> Error e
  | Ok leaf_authority -> (
      match
        Certificate.verify ~ca_public:leaf_authority ~hash ~now ?expected_subject leaf
      with
      | Ok () -> Ok ()
      | Error e -> Error (Leaf_invalid e))
