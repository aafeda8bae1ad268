(* The data datagram the three keying baselines share (see sealed.mli):
   a scheme head with a flags byte, then

     8B iv | extra | 16B mac | DES-CBC(payload)

   under a prefix-MD5 MAC over iv | extra | ciphertext. *)

open Fbsr_netsim
open Fbsr_util

let flags = 1
let iv_len = 8
let mac_len = 16
let overhead ~head = head + iv_len + mac_len + 8 (* the most CBC padding adds *)

type key = { des : Fbsr_crypto.Des.key; mac : string }

let mac key parts = Fbsr_crypto.Mac.prefix ~key:key.mac parts

let seal ivs key ~head ~extra payload =
  let iv = Lcg.next_block ivs iv_len in
  let body = Fbsr_crypto.Des.encrypt_cbc ~iv key.des payload in
  String.concat "" [ head; iv; extra; mac key [ iv; extra; body ]; body ]

type error =
  | Truncated
  | Bad_variant
  | Bad_flags
  | Unknown_key
  | Expired
  | Bad_mac
  | Decrypt_error

type tail = { iv : string; extra : string; tag : string; body : string }

let frame wire head =
  let r = Byte_reader.of_string wire in
  match
    Result.map
      (fun (flags, h, extra_len) ->
        let iv = Byte_reader.bytes r iv_len in
        let extra = Byte_reader.bytes r extra_len in
        let tag = Byte_reader.bytes r mac_len in
        (flags, h, { iv; extra; tag; body = Byte_reader.rest r }))
      (head r)
  with
  | exception Byte_reader.Truncated -> Error Truncated
  | Error e -> Error e
  | Ok (f, _, _) when f <> flags -> Error Bad_flags
  | Ok (_, h, tail) -> Ok (h, tail)

let extra tail = tail.extra

let open_ key tail =
  if not (Fbsr_crypto.Ct.equal tail.tag (mac key [ tail.iv; tail.extra; tail.body ])) then
    Error Bad_mac
  else
    match Fbsr_crypto.Des.decrypt_cbc ~iv:tail.iv key.des tail.body with
    | plaintext -> Ok plaintext
    | exception Invalid_argument _ -> Error Decrypt_error

type counters = { mutable sent : int; mutable received : int; mutable dropped : int }

(* Both hooks answer once the key is in hand: at once, or when the
   keying the scheme waits on completes. *)
let output c ~bypass ~seal find (h : Ipv4.header) payload k =
  if bypass h payload then k (Host.Pass (h, payload))
  else
    find h (function
      | Ok key ->
          c.sent <- c.sent + 1;
          k (Host.Pass (h, seal key payload))
      | Error _ ->
          c.dropped <- c.dropped + 1;
          k (Host.Drop "no key to seal under"))

(* Session setup must finish before the first datagram to a peer can
   leave: the explicit exchange FBS's zero-message keying removes.  The
   datagrams wait on the peer's request, which is retransmitted until the
   last attempt's timeout answers them with an error. *)
let await requests peer cached ~start k =
  match cached with
  | Some session -> k (Ok session)
  | None ->
      if not (Request.join requests peer k) then begin
        let state, send = start () in
        Request.start requests peer state ~send k
      end

let input c ~bypass unprotect (h : Ipv4.header) payload k =
  if bypass h payload then k (Host.Pass (h, payload))
  else
    unprotect h payload (function
      | Ok plaintext ->
          c.received <- c.received + 1;
          k (Host.Pass (h, plaintext))
      | Error _ ->
          c.dropped <- c.dropped + 1;
          k (Host.Drop "refused"))
