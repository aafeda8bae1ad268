(* Single-pass MAC + encryption.

   Section 5.3: "The MAC computation is an expensive operation.  It
   requires touching all the data in the datagram.  An efficient
   implementation should try to combine all such data touching operations
   into a single pass.  For example, if data confidentiality is desired,
   then the MAC computation and encryption should be rolled into one
   loop."

   A seal is a [job]: the DES-CBC job of its body ([Des.cbc_job]) plus
   the MAC's resumed MD5 context and the slot the MAC goes to.  Run
   alone, the job is one loop: [Des.encrypt_cbc_job_md5] on the kernel
   [Des_kernel.cbc_encrypt_md5], which runs an MD5 compression beside
   every four DES blocks, interleaved at round granularity, so MD5's
   chain fills the issue slots the CBC chain's serial table loads leave
   idle.  Run as a pair, the two MACs go through [Md5] and the two CBC
   chains through the two-chain kernel, which already fills those slots
   with the other datagram's chain.  Bytes are identical either way
   (DESIGN.md §6c "One pass").  The source is read through the CBC job,
   which holds it. *)

type job = {
  cbc : Des.cbc_job;
  md5 : Md5.ctx; (* the MAC input before the source, owned by the job *)
  mac_dst : Bytes.t; (* the MAC's 16 bytes go here, at [mac_pos] *)
  mac_pos : int;
}

let job ~md5 ~key ~iv ~src ~src_pos ~src_len ~dst ~dst_pos ~mac_dst ~mac_pos =
  if mac_pos < 0 || mac_pos > Bytes.length mac_dst - Md5.digest_size then
    invalid_arg "Fused.job: bad MAC slot";
  let cbc = Des.cbc_job ~key ~iv ~src ~src_pos ~src_len ~dst ~dst_pos in
  { cbc; md5; mac_dst; mac_pos }

let write_mac j mac = Bytes.blit_string mac 0 j.mac_dst j.mac_pos Md5.digest_size

let run j =
  write_mac j (Des.encrypt_cbc_job_md5 j.cbc j.md5);
  Des.cbc_job_blocks j.cbc

let mac_alone j =
  Des.feed_source_md5 j.cbc j.md5;
  write_mac j (Md5.final j.md5)

let run_pair a b =
  mac_alone a;
  mac_alone b;
  Des.encrypt_cbc_pair a.cbc b.cbc

(* MAC = MD5(mac_key | prefix_parts... | payload), the paper's prefix
   MAC; ciphertext = DES-CBC(des_key, iv, payload): a lone job. *)
let mac_and_encrypt ~mac_key ~des_key ~iv ~prefix_parts payload =
  let md5 = Mac.resume_md5 (Mac.prepare ~key:mac_key) in
  List.iter (Md5.update md5) prefix_parts;
  let n = String.length payload in
  let out = Bytes.create (Des.padded_length n) in
  let mac = Bytes.create Md5.digest_size in
  ignore
    (run
       (job ~md5 ~key:des_key ~iv ~src:payload ~src_pos:0 ~src_len:n ~dst:out
          ~dst_pos:0 ~mac_dst:mac ~mac_pos:0)
      : int);
  (Bytes.unsafe_to_string mac, Bytes.unsafe_to_string out)

(* The two-pass equivalent, for equivalence tests and the bench. *)
let mac_then_encrypt ~mac_key ~des_key ~iv ~prefix_parts payload =
  let mac = Md5.digest_list ((mac_key :: prefix_parts) @ [ payload ]) in
  let ct = Des.encrypt_cbc ~iv des_key payload in
  (mac, ct)
