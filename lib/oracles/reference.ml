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

(* DES-CBC-MAC the string way: the last block of a zero-IV CBC pass over
   the concatenated, padded message. *)
let des_cbc_mac ~key parts =
  if String.length key < 8 then invalid_arg "Mac.des_cbc: key too short";
  let des_key =
    Fbsr_crypto.Des.of_string (Fbsr_crypto.Des.adjust_parity (String.sub key 0 8))
  in
  let ct =
    Fbsr_crypto.Des.encrypt_cbc ~iv:(String.make 8 '\000') des_key (String.concat "" parts)
  in
  String.sub ct (String.length ct - 8) 8

let mac ?(algorithm = Fbsr_crypto.Mac.Prefix) hash ~key parts =
  match algorithm with
  | Fbsr_crypto.Mac.Prefix -> Fbsr_crypto.Mac.prefix hash ~key parts
  | Fbsr_crypto.Mac.Hmac -> Fbsr_crypto.Mac.hmac hash ~key parts
  | Fbsr_crypto.Mac.Des_cbc_mac -> des_cbc_mac ~key parts

(* MAC input exactly as the old [Engine.compute_mac] built it: three fresh
   header-field strings, the digest, and a truncation copy. *)
let compute_mac (suite : Fbsr_fbs.Suite.t) ~flow_key ~(header : Fbsr_fbs.Header.t)
    ~payload =
  if Fbsr_fbs.Suite.is_nop suite then String.make suite.Fbsr_fbs.Suite.mac_length '\000'
  else begin
    let parts =
      [ auth_bytes header; confounder_bytes header; timestamp_bytes header; payload ]
    in
    let mac =
      mac ~algorithm:suite.Fbsr_fbs.Suite.mac_algorithm suite.Fbsr_fbs.Suite.mac_hash
        ~key:flow_key parts
    in
    String.sub mac 0 suite.Fbsr_fbs.Suite.mac_length
  end

(* Whole-string 3DES CBC, chained block by block over {!Fbsr_crypto.Des3}'s
   EDE3 block primitive: the string flavour the one-allocation
   [encrypt_cbc_into]/[decrypt_cbc_sub] are compared against. *)
let des3_check_iv iv = if String.length iv <> 8 then invalid_arg "Des3: IV must be 8 bytes"

let des3_encrypt_cbc ~iv key pt =
  des3_check_iv iv;
  let data = Fbsr_crypto.Des.pad pt in
  let out = Bytes.create (String.length data) in
  let prev = ref (String.get_int64_be iv 0) in
  for i = 0 to (String.length data / 8) - 1 do
    let b =
      Fbsr_crypto.Des3.encrypt_block key
        (Int64.logxor !prev (String.get_int64_be data (i * 8)))
    in
    Bytes.set_int64_be out (i * 8) b;
    prev := b
  done;
  Bytes.unsafe_to_string out

let des3_decrypt_cbc ~iv key ct =
  des3_check_iv iv;
  let n = String.length ct in
  if n = 0 || n mod 8 <> 0 then invalid_arg "Des3.decrypt_cbc: bad length";
  let out = Bytes.create n in
  let prev = ref (String.get_int64_be iv 0) in
  for i = 0 to (n / 8) - 1 do
    let c = String.get_int64_be ct (i * 8) in
    Bytes.set_int64_be out (i * 8)
      (Int64.logxor !prev (Fbsr_crypto.Des3.decrypt_block key c));
    prev := c
  done;
  Fbsr_crypto.Des.unpad (Bytes.unsafe_to_string out)

let des_key_of_flow_key flow_key =
  Fbsr_crypto.Des.adjust_parity (String.sub flow_key 0 8)

let des3_key_of_flow_key flow_key =
  let material = flow_key ^ Fbsr_crypto.Md5.digest flow_key in
  Fbsr_crypto.Des3.of_string (Fbsr_crypto.Des.adjust_parity (String.sub material 0 24))

(* The hmac-sha1/sha1-ctr body transform, string-at-a-time: the cleartext
   (but MACed) 4-byte prefix, then the SHA-1 counter keystream over the
   remainder.  Self-inverse.  Mirrors [Armor_sha1ctr] byte for byte. *)
let sha1_ctr_prefix = 4

let sha1_ctr_body ~flow_key ~iv body =
  let len = String.length body in
  let p = min sha1_ctr_prefix len in
  (* Tail sub, keystream output buffer, prefix ^ tail concatenation. *)
  let ks = Fbsr_crypto.Keystream.create Fbsr_crypto.Hash.sha1 ~key:flow_key in
  let tail = Fbsr_crypto.Keystream.transform ks ~iv (String.sub body p (len - p)) in
  String.sub body 0 p ^ tail

let encrypt_body (suite : Fbsr_fbs.Suite.t) ~flow_key ~iv ~payload =
  if Fbsr_fbs.Suite.is_nop suite then payload
  else if suite.Fbsr_fbs.Suite.cipher = Fbsr_fbs.Suite.Sha1_ctr then
    sha1_ctr_body ~flow_key ~iv payload
  else begin
    (* [Des.pad] copies the payload into a padded buffer, then the cipher
       allocates the ciphertext. *)
    match suite.Fbsr_fbs.Suite.cipher with
    | Fbsr_fbs.Suite.Sha1_ctr -> assert false (* handled above *)
    | Fbsr_fbs.Suite.Des3_cbc ->
        des3_encrypt_cbc ~iv (des3_key_of_flow_key flow_key) payload
    | Fbsr_fbs.Suite.Des_cbc ->
        Fbsr_crypto.Des.encrypt_cbc ~iv
          (Fbsr_crypto.Des.of_string (des_key_of_flow_key flow_key))
          payload
  end

let decrypt_body (suite : Fbsr_fbs.Suite.t) ~flow_key ~iv ~body =
  if Fbsr_fbs.Suite.is_nop suite then Ok body
  else if suite.Fbsr_fbs.Suite.cipher = Fbsr_fbs.Suite.Sha1_ctr then
    Ok (sha1_ctr_body ~flow_key ~iv body)
  else begin
    (* Cipher output buffer, then [Des.unpad]'s exact-size copy. *)
    match
      match suite.Fbsr_fbs.Suite.cipher with
      | Fbsr_fbs.Suite.Sha1_ctr -> assert false (* handled above *)
      | Fbsr_fbs.Suite.Des3_cbc ->
          des3_decrypt_cbc ~iv (des3_key_of_flow_key flow_key) body
      | Fbsr_fbs.Suite.Des_cbc ->
          Fbsr_crypto.Des.decrypt_cbc ~iv
            (Fbsr_crypto.Des.of_string (des_key_of_flow_key flow_key))
            body
    with
    | plaintext -> Ok plaintext
    | exception Invalid_argument _ -> Error `Decrypt
  end

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
