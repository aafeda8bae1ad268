(* The pre-refactor string-based datapath, retained verbatim as a
   reference implementation.

   Two consumers:

   - the differential property suite (test/test_slice.ml) checks that the
     engine's zero-copy seal/receive produce byte-identical wires and
     accept each other's output;
   - the bench artifact measures this path's GC allocation next to the
     zero-copy one's, so the reduction is visible inside a single
     artifact instead of across baseline files. *)

(* The header fields as the string-based datapath fed them to the MAC,
   one fresh string each: the two authenticated algorithm-identification
   bytes (suite id, flags), then the big-endian confounder and timestamp,
   the same bytes that go on the wire. *)
let auth_bytes (t : Fbsr_fbs.Header.t) =
  String.init 2 (fun i ->
      if i = 0 then Char.chr t.suite.Fbsr_fbs.Suite.id
      else Char.chr (if t.secret then 1 else 0))

let confounder_bytes (t : Fbsr_fbs.Header.t) =
  String.init 4 (fun i -> Char.chr ((t.confounder lsr (8 * (3 - i))) land 0xff))

let timestamp_bytes (t : Fbsr_fbs.Header.t) =
  String.init 4 (fun i -> Char.chr ((t.timestamp lsr (8 * (3 - i))) land 0xff))

(* "For DES encryption, the confounder is first duplicated to provide a
   64-bit quantity" (Section 7.2). *)
let confounder_iv t =
  let c = confounder_bytes t in
  c ^ c

(* The paper's keyed-MD5 MAC the string way: MD5 over the key-prefixed
   concatenation. *)
let mac ~key parts = Fbsr_crypto.Mac.prefix ~key parts

(* MAC input exactly as the old [Engine.compute_mac] built it: three fresh
   header-field strings, the digest, and a copy of it cut to the MAC
   field. *)
let compute_mac (suite : Fbsr_fbs.Suite.t) ~flow_key ~(header : Fbsr_fbs.Header.t)
    ~payload =
  if Fbsr_fbs.Suite.is_nop suite then String.make Fbsr_fbs.Header.mac_length '\000'
  else
    let parts =
      [ auth_bytes header; confounder_bytes header; timestamp_bytes header; payload ]
    in
    String.sub (mac ~key:flow_key parts) 0 Fbsr_fbs.Header.mac_length

let des_key_of_flow_key flow_key =
  Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity (String.sub flow_key 0 8))

(* [Des.pad] copies the payload into a padded buffer, then the cipher
   allocates the ciphertext. *)
let encrypt_body (suite : Fbsr_fbs.Suite.t) ~flow_key ~iv ~payload =
  if Fbsr_fbs.Suite.is_nop suite then payload
  else Fbsr_crypto.Des.encrypt_cbc ~iv (des_key_of_flow_key flow_key) payload

(* Cipher output buffer, then [Des.unpad]'s exact-size copy. *)
let decrypt_body (suite : Fbsr_fbs.Suite.t) ~flow_key ~iv ~body =
  if Fbsr_fbs.Suite.is_nop suite then Ok body
  else
    match Fbsr_crypto.Des.decrypt_cbc ~iv (des_key_of_flow_key flow_key) body with
    | plaintext -> Ok plaintext
    | exception Invalid_argument _ -> Error `Decrypt

(* The engine's seal step (Figure 4 S4-S10) written the string-based
   way, with the confounder and timestamp supplied by the caller (the
   engine draws them from its own LCG/clock; passing them in makes the
   two paths comparable on identical inputs). *)
let seal ~(suite : Fbsr_fbs.Suite.t) ~flow_key ~sfl ~secret ~confounder ~timestamp ~payload () =
  let header0 =
    { Fbsr_fbs.Header.sfl; suite; secret; confounder; timestamp; mac = "" }
  in
  let mac = compute_mac suite ~flow_key ~header:header0 ~payload in
  let header = { header0 with Fbsr_fbs.Header.mac } in
  let body =
    if secret then
      encrypt_body suite ~flow_key ~iv:(confounder_iv header) ~payload
    else payload
  in
  (* Header encode (writer buffer + contents copy) and the final
     header ^ body concatenation. *)
  Fbsr_fbs.Header.encode header ^ body

type open_error = [ `Header of Fbsr_fbs.Header.error | `Bad_mac | `Decrypt ]

(* The old receive-side datapath (decode, decrypt, MAC recomputation and
   comparison) without the engine's replay/keying machinery: the
   differential suite drives those through the engine itself. *)
let open_ ~(suite : Fbsr_fbs.Suite.t) ~flow_key ~wire () =
  match Fbsr_fbs.Header.decode wire with
  | Error e -> Error (`Header e)
  | Ok (header, body) ->
      (* [decode] copies the MAC and the body out of the wire. *)
      if header.Fbsr_fbs.Header.suite.Fbsr_fbs.Suite.id <> suite.Fbsr_fbs.Suite.id
      then Error (`Header (Fbsr_fbs.Header.Unknown_suite header.Fbsr_fbs.Header.suite.Fbsr_fbs.Suite.id))
      else
        let finish plaintext =
          let mac' = compute_mac suite ~flow_key ~header ~payload:plaintext in
          if Fbsr_crypto.Ct.equal mac' header.Fbsr_fbs.Header.mac then Ok (header, plaintext)
          else Error `Bad_mac
        in
        if header.Fbsr_fbs.Header.secret then
          match
            decrypt_body suite ~flow_key ~iv:(confounder_iv header) ~body
          with
          | Ok plaintext -> finish plaintext
          | Error `Decrypt -> Error `Decrypt
        else finish body
