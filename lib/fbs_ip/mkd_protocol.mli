(** MKD <-> certificate-authority wire protocol (travels via the secure
    flow bypass, deliberately unprotected — certificates are self-securing). *)

type message =
  | Request of string
  | Certificate of Fbsr_cert.Certificate.t
  | Failure of { subject : string; reason : string }
      (** The CA cannot answer the request for [subject]. *)

val encode : message -> string

exception Bad_message of string

val decode : string -> message

val default_port : int
