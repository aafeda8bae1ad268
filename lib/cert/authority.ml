(* A certificate authority: holds the RSA signing key and a directory of
   enrolled principals.  The network-facing request/response protocol the
   master key daemon speaks to it lives in [Fbsr_fbs.Mkd] / the IP mapping;
   this module is pure policy and crypto. *)

type t = {
  key : Fbsr_crypto.Rsa.private_key;
  hash : Fbsr_crypto.Hash.t;
  validity : float; (* certificate lifetime in seconds *)
  directory : (string, Certificate.t) Hashtbl.t;
  mutable issued : int;
}

let create ?(hash = Fbsr_crypto.Hash.md5) ?(validity = 30.0 *. 86400.0) ~rng ~bits () =
  {
    key = Fbsr_crypto.Rsa.generate rng ~bits;
    hash;
    validity;
    directory = Hashtbl.create 16;
    issued = 0;
  }

let public t = Fbsr_crypto.Rsa.public_key t.key
let hash t = t.hash


let enroll t ~now ~subject ~group ~public_value =
  let cert =
    Certificate.sign ~ca_key:t.key ~hash:t.hash ~subject ~group ~public_value
      ~not_before:now ~not_after:(now +. t.validity)
  in
  Hashtbl.replace t.directory subject cert;
  t.issued <- t.issued + 1;
  cert

let lookup t subject = Hashtbl.find_opt t.directory subject

let revoke t subject = Hashtbl.remove t.directory subject

let issued t = t.issued
