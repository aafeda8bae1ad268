(* The pre-refactor engine drivers as armor instances: DES-CBC under the
   keyed-MD5 / HMAC-MD5 / keyed-SHA1 / DES-CBC-MAC suites, 3DES-CBC, and
   the NOP suite.  Byte-identical to the old in-engine dispatch, counter
   bump for counter bump — the twin-engine differential suite holds the
   instances to the retained string reference. *)

(* The pending CBC seal, run beside the next one on the two-chain
   kernel, or alone at a flush. *)
type Armor.job += Des_cbc_chain of Fbsr_crypto.Des.cbc_job

let des_cbc_batch : Armor.batch_ops =
  {
    Armor.defer =
      (fun ctx entry ~confounder ~payload w ->
        let c = ctx.Armor.counters in
        c.Armor.encryptions <- c.Armor.encryptions + 1;
        let key = Armor.des_sched ctx entry in
        let iv = Armor.iv_of_confounder ctx ~confounder in
        let payload_len = String.length payload in
        let body_len = Fbsr_crypto.Des.padded_length payload_len in
        let dst, dst_pos = Fbsr_util.Byte_writer.reserve w body_len in
        (* The job snapshots [iv] (ctx scratch, rewritten by the next
           seal) and borrows [payload]/[dst] until it runs. *)
        Des_cbc_chain
          (Fbsr_crypto.Des.cbc_job ~key ~iv ~src:payload ~src_pos:0
             ~src_len:payload_len ~dst ~dst_pos));
    run =
      (fun parked partner ->
        match (parked, partner) with
        | Des_cbc_chain a, Some (Des_cbc_chain b) -> Fbsr_crypto.Des.encrypt_cbc_pair a b
        | Des_cbc_chain a, None -> Fbsr_crypto.Des.encrypt_cbc_job a
        | _ -> invalid_arg "Armor_classic: foreign job in DES-CBC batch");
  }

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

    let seal_mac ctx entry ~secret ~confounder ~timestamp ~payload =
      if nop then nop_mac
      else Armor.compute_mac ctx entry ~suite ~secret ~confounder ~timestamp ~payload

    let verify_mac ctx entry ~secret ~confounder ~timestamp ~payload ~expected =
      if nop then
        (* The NOP MAC is all-zero on the wire; still compared in
           constant time so the NOP measurement keeps the comparison
           cost. *)
        Fbsr_crypto.Ct.equal_string_slice nop_mac expected
      else
        Armor.verify_mac ctx entry ~suite ~secret ~confounder ~timestamp ~payload
          ~expected

    let seal_body ctx entry ~secret ~confounder ~payload w =
      if not (secret && encrypts) then
        (* The single mandatory write of the payload into the wire buffer. *)
        Fbsr_util.Byte_writer.bytes w payload
      else begin
        let c = ctx.Armor.counters in
        c.Armor.encryptions <- c.Armor.encryptions + 1;
        let iv = Armor.iv_of_confounder ctx ~confounder in
        let payload_len = String.length payload in
        match suite.Suite.cipher with
        | Suite.Des_cbc ->
            let key = Armor.des_sched ctx entry in
            let body_len = Fbsr_crypto.Des.padded_length payload_len in
            let dst, dst_pos = Fbsr_util.Byte_writer.reserve w body_len in
            ignore
              (Fbsr_crypto.Des.encrypt_cbc_into ~iv key ~src:payload ~src_pos:0
                 ~src_len:payload_len ~dst ~dst_pos)
        | Suite.Des3_cbc ->
            let key = Armor.des3_sched ctx entry in
            let body_len = Fbsr_crypto.Des.padded_length payload_len in
            let dst, dst_pos = Fbsr_util.Byte_writer.reserve w body_len in
            ignore
              (Fbsr_crypto.Des3.encrypt_cbc_into ~iv key ~src:payload ~src_pos:0
                 ~src_len:payload_len ~dst ~dst_pos)
        | Suite.Sha1_ctr -> assert false (* not a classic cipher *)
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

    let batch =
      if encrypts && suite.Suite.cipher = Suite.Des_cbc then Some des_cbc_batch
      else None
  end in
  (module M : Armor.S)
