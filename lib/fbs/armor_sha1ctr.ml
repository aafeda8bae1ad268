(* The HMAC-SHA1 + SHA-1-counter-keystream armor (suite id 5) — the
   leaf-change proof of the armor seam: a genuinely new suite (non-DES
   cipher, new MAC/tag size, an authenticate-only prefix) that touches
   no engine code.

   Secret bodies are length-preserving: the first [auth_prefix_len]
   payload bytes travel in cleartext (still covered by the MAC — the SST
   FlowArmor "encofs" shape, keeping leading transport words readable by
   middle-boxes), the rest is XORed with the per-flow keystream.  The
   keystream's frozen key absorption is the armor-private [aux] state in
   the flow entry, accounted through the same keysched hit/miss counters
   as the DES schedules. *)

type Armor.aux += Keystream of Fbsr_crypto.Keystream.t

let suite = Suite.hmac_sha1_ctr
let auth_prefix_len = 4

let keystream_of ctx (entry : Armor.flow_state) =
  match entry.Armor.aux with
  | Some (Keystream k) ->
      ctx.Armor.counters.Armor.keysched_hits <-
        ctx.Armor.counters.Armor.keysched_hits + 1;
      k
  | _ ->
      ctx.Armor.counters.Armor.keysched_misses <-
        ctx.Armor.counters.Armor.keysched_misses + 1;
      let k = Fbsr_crypto.Keystream.create Fbsr_crypto.Hash.sha1 ~key:entry.Armor.fk in
      entry.Armor.aux <- Some (Keystream k);
      k

let armor : Armor.armor =
  (module struct
    let suite = suite
    let encrypts = true
    let max_body_growth = 0 (* length-preserving keystream *)
    let sealed_body_len ~secret:_ len = len

    let verify_mac ctx entry ~secret ~confounder ~timestamp ~payload ~expected =
      Armor.verify_mac ctx entry ~suite ~secret ~confounder ~timestamp ~payload
        ~expected

    let seal ctx entry ~secret ~confounder ~timestamp ~payload w =
      Fbsr_util.Byte_writer.substring w
        (Armor.compute_mac ctx entry ~suite ~secret ~confounder ~timestamp
           ~payload:(Fbsr_util.Slice.of_string payload))
        0 suite.Suite.mac_length;
      if not secret then Fbsr_util.Byte_writer.bytes w payload
      else begin
        let c = ctx.Armor.counters in
        c.Armor.encryptions <- c.Armor.encryptions + 1;
        let ks = keystream_of ctx entry in
        let iv = Armor.iv_of_confounder ctx ~confounder in
        let len = String.length payload in
        let p = min auth_prefix_len len in
        let dst, dst_pos = Fbsr_util.Byte_writer.reserve w len in
        (* Cleartext-but-MACed prefix, then the keystream XOR straight
           into the reserved wire region — no intermediate buffer. *)
        Bytes.blit_string payload 0 dst dst_pos p;
        Fbsr_crypto.Keystream.transform_into ks ~iv ~src:payload ~src_pos:p
          ~src_len:(len - p) ~dst ~dst_pos:(dst_pos + p)
      end

    let open_body ctx entry ~confounder ~(body : Fbsr_util.Slice.t) =
      let c = ctx.Armor.counters in
      c.Armor.decryptions <- c.Armor.decryptions + 1;
      let ks = keystream_of ctx entry in
      let iv = Armor.iv_of_confounder ctx ~confounder in
      let len = body.Fbsr_util.Slice.len in
      let p = min auth_prefix_len len in
      (* The one plaintext allocation of a received secret datagram:
         prefix blitted verbatim, remainder XOR-decrypted in place. *)
      let dst = Bytes.create len in
      Bytes.blit_string body.Fbsr_util.Slice.base body.Fbsr_util.Slice.off dst 0 p;
      Fbsr_crypto.Keystream.transform_into ks ~iv ~src:body.Fbsr_util.Slice.base
        ~src_pos:(body.Fbsr_util.Slice.off + p) ~src_len:(len - p) ~dst ~dst_pos:p;
      Ok (Bytes.unsafe_to_string dst)

    let batch = None
  end : Armor.S)
