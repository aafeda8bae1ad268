(* The pre-refactor engine drivers as armor instances: DES-CBC under the
   keyed-MD5 / HMAC-MD5 / keyed-SHA1 / DES-CBC-MAC suites, 3DES-CBC, and
   the NOP suite.  Byte-identical to the old in-engine dispatch, counter
   bump for counter bump — the twin-engine differential suite holds the
   instances to the retained string reference. *)

(* A pending DES-CBC seal, run beside the next one on the two-chain
   kernel, or alone at a flush.  Under an MD5 MAC (suites 0 and 1) the
   job carries the MAC too ([Fused]): alone it runs in one pass; under
   any other MAC the MAC was written at seal time and the job is the
   encryption only. *)
type Armor.job +=
  | Des_cbc_chain of Fbsr_crypto.Des.cbc_job
  | Md5_des_cbc of Fbsr_crypto.Fused.job

let run_des_cbc parked partner =
  match (parked, partner) with
  | Md5_des_cbc a, Some (Md5_des_cbc b) -> Fbsr_crypto.Fused.run_pair a b
  | Md5_des_cbc a, None -> Fbsr_crypto.Fused.run a
  | Des_cbc_chain a, Some (Des_cbc_chain b) -> Fbsr_crypto.Des.encrypt_cbc_pair a b
  | Des_cbc_chain a, None -> Fbsr_crypto.Des.encrypt_cbc_job a
  | _ -> invalid_arg "Armor_classic: foreign job in DES-CBC batch"

(* Whether a suite's MAC is MD5 prefix or HMAC, which the one-pass seal
   computes beside the encryption. *)
let md5_mac (suite : Suite.t) =
  suite.Suite.mac_algorithm <> Fbsr_crypto.Mac.Des_cbc_mac
  && Fbsr_crypto.Hash.name suite.Suite.mac_hash = Fbsr_crypto.Md5.name

let write_mac w (suite : Suite.t) mac =
  (* [substring] also performs the suite's truncation (Section 5.3)
     without an intermediate string. *)
  Fbsr_util.Byte_writer.substring w mac 0 suite.Suite.mac_length

(* The secret DES-CBC seal as a pending job; the job snapshots the IV.
   The MD5 job takes its MAC inputs along — the midstate, resumed, with
   the prelude absorbed into its partial block, since [ctx.mac_prelude]
   is rewritten by the next seal — and reserves the MAC slot and the
   body as one region. *)
let des_cbc_defer (suite : Suite.t) =
  let mac_len = suite.Suite.mac_length in
  let count_encryption ctx =
    let c = ctx.Armor.counters in
    c.Armor.encryptions <- c.Armor.encryptions + 1
  in
  if md5_mac suite then fun ctx entry ~confounder ~timestamp ~payload w ->
    let mid = Armor.mac_state ctx entry ~suite ~secret:true ~confounder ~timestamp in
    let md5 = Fbsr_crypto.Mac.resume_md5 mid in
    Fbsr_crypto.Md5.feed md5
      (Bytes.unsafe_to_string ctx.Armor.mac_prelude)
      0 Header.mac_prelude_size;
    count_encryption ctx;
    let key = Armor.des_sched ctx entry and iv = Armor.iv_of_confounder ctx ~confounder in
    let src_len = String.length payload in
    let buf, pos =
      Fbsr_util.Byte_writer.reserve w (mac_len + Fbsr_crypto.Des.padded_length src_len)
    in
    Md5_des_cbc
      (Fbsr_crypto.Fused.job ~mid ~md5 ~key ~iv ~src:payload ~src_pos:0 ~src_len ~dst:buf
         ~dst_pos:(pos + mac_len) ~mac_dst:buf ~mac_pos:pos ~mac_len)
  else fun ctx entry ~confounder ~timestamp ~payload w ->
    write_mac w suite
      (Armor.compute_mac ctx entry ~suite ~secret:true ~confounder ~timestamp
         ~payload:(Fbsr_util.Slice.of_string payload));
    count_encryption ctx;
    let key = Armor.des_sched ctx entry and iv = Armor.iv_of_confounder ctx ~confounder in
    let src_len = String.length payload in
    let dst, dst_pos =
      Fbsr_util.Byte_writer.reserve w (Fbsr_crypto.Des.padded_length src_len)
    in
    Des_cbc_chain
      (Fbsr_crypto.Des.cbc_job ~key ~iv ~src:payload ~src_pos:0 ~src_len ~dst ~dst_pos)

let make (suite : Suite.t) : Armor.armor =
  let nop = Suite.is_nop suite in
  let nop_mac = String.make suite.Suite.mac_length '\000' in
  let encrypts = not nop in
  let module M = struct
    let suite = suite
    let encrypts = encrypts

    (* CBC padding always adds 1-8 bytes.  Kept even for NOP (its
       descriptor says DES-CBC), so its [Engine.wire_overhead] is the
       DES-CBC suites'. *)
    let max_body_growth = 8

    let sealed_body_len ~secret len =
      if secret && encrypts then Fbsr_crypto.Des.padded_length len else len

    let verify_mac ctx entry ~secret ~confounder ~timestamp ~payload ~expected =
      if nop then
        (* The NOP MAC is all-zero on the wire; still compared in
           constant time so the NOP measurement keeps the comparison
           cost. *)
        Fbsr_crypto.Ct.equal_string_slice nop_mac expected
      else
        Armor.verify_mac ctx entry ~suite ~secret ~confounder ~timestamp ~payload
          ~expected

    let batch =
      if encrypts && suite.Suite.cipher = Suite.Des_cbc then
        Some { Armor.defer = des_cbc_defer suite; run = run_des_cbc }
      else None

    let seal ctx entry ~secret ~confounder ~timestamp ~payload w =
      match batch with
      | Some ops when secret ->
          (* The lone job: the very path a flushed parked seal takes. *)
          let job = ops.Armor.defer ctx entry ~confounder ~timestamp ~payload w in
          ignore (ops.Armor.run job None : int)
      | _ ->
          write_mac w suite
            (if nop then nop_mac
             else
               Armor.compute_mac ctx entry ~suite ~secret ~confounder ~timestamp
                 ~payload:(Fbsr_util.Slice.of_string payload));
          if not (secret && encrypts) then
            (* The single mandatory write of the payload into the wire buffer. *)
            Fbsr_util.Byte_writer.bytes w payload
          else begin
            (* 3DES-CBC: MAC, then the encryption, in two passes. *)
            let c = ctx.Armor.counters in
            c.Armor.encryptions <- c.Armor.encryptions + 1;
            let iv = Armor.iv_of_confounder ctx ~confounder in
            let payload_len = String.length payload in
            let key = Armor.des3_sched ctx entry in
            let body_len = Fbsr_crypto.Des.padded_length payload_len in
            let dst, dst_pos = Fbsr_util.Byte_writer.reserve w body_len in
            ignore
              (Fbsr_crypto.Des3.encrypt_cbc_into ~iv key ~src:payload ~src_pos:0
                 ~src_len:payload_len ~dst ~dst_pos)
          end

    let open_body ctx entry ~confounder ~(body : Fbsr_util.Slice.t) =
      let c = ctx.Armor.counters in
      c.Armor.decryptions <- c.Armor.decryptions + 1;
      let iv = Armor.iv_of_confounder ctx ~confounder in
      match
        match suite.Suite.cipher with
        | Suite.Des_cbc ->
            Fbsr_crypto.Des.decrypt_cbc_sub ~iv (Armor.des_sched ctx entry)
              ~src:body.Fbsr_util.Slice.base ~pos:body.Fbsr_util.Slice.off
              ~len:body.Fbsr_util.Slice.len
        | Suite.Des3_cbc ->
            Fbsr_crypto.Des3.decrypt_cbc_sub ~iv (Armor.des3_sched ctx entry)
              ~src:body.Fbsr_util.Slice.base ~pos:body.Fbsr_util.Slice.off
              ~len:body.Fbsr_util.Slice.len
        | Suite.Sha1_ctr -> assert false
      with
      | plaintext -> Ok plaintext
      | exception Invalid_argument _ -> Error ()

  end in
  (module M : Armor.S)
