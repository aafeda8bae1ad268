(* Hash-counter keystream: block i = H(key | iv | be32 i), XOR.  The key
   prefix is absorbed once into a midstate; each block resumes it over
   iv | counter.  See keystream.mli. *)

type t = {
  mid : Hash.midstate;
  block : int;
  ctr : Bytes.t; (* 4-byte big-endian counter scratch, refilled per block *)
}

let create hash ~key =
  { mid = Hash.midstate hash ~prefix:key; block = Hash.digest_size hash; ctr = Bytes.create 4 }

let transform_into t ~iv ~src ~src_pos ~src_len ~dst ~dst_pos =
  if String.length iv <> 8 then
    invalid_arg "Keystream.transform_into: IV must be 8 bytes";
  if
    src_len < 0
    || src_pos < 0
    || src_pos + src_len > String.length src
    || dst_pos < 0
    || dst_pos + src_len > Bytes.length dst
  then invalid_arg "Keystream.transform_into: bad range";
  let nblocks = (src_len + t.block - 1) / t.block in
  let off = ref 0 in
  for i = 0 to nblocks - 1 do
    Bytes.set t.ctr 0 (Char.chr ((i lsr 24) land 0xff));
    Bytes.set t.ctr 1 (Char.chr ((i lsr 16) land 0xff));
    Bytes.set t.ctr 2 (Char.chr ((i lsr 8) land 0xff));
    Bytes.set t.ctr 3 (Char.chr (i land 0xff));
    (* The counter scratch is consumed by the resume before the next
       refill; the midstate itself is reusable. *)
    let ks = Hash.resume_list t.mid [ iv; Bytes.unsafe_to_string t.ctr ] in
    let n = min t.block (src_len - !off) in
    for j = 0 to n - 1 do
      Bytes.unsafe_set dst
        (dst_pos + !off + j)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get src (src_pos + !off + j))
           lxor Char.code (String.unsafe_get ks j)))
    done;
    off := !off + n
  done

let transform t ~iv src =
  let len = String.length src in
  let dst = Bytes.create len in
  transform_into t ~iv ~src ~src_pos:0 ~src_len:len ~dst ~dst_pos:0;
  Bytes.unsafe_to_string dst
