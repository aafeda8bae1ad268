(* Algorithm suites — the paper's "algorithm identification field, which
   specifies the cryptographic algorithms used (e.g., for MAC computation,
   encryption)" (Section 5.2).  The paper's implementation has one suite,
   and Section 7.3 measures it against a nullified one; those are the two
   here.  The algorithms are fixed: MD5 for the flow-key hash H, keyed
   (prefix) MD5 for the full 128-bit MAC, DES-CBC for confidentiality. *)

type t = { id : int (* wire identifier *) }

(* Suite 0 is the paper's own implementation choice: keyed MD5 for both H
   and the MAC, DES-CBC for confidentiality. *)
let paper_md5_des = { id = 0 }

(* "Nullified" crypto for the FBS NOP measurement in Figure 8: header
   processing and flow management run, MAC and encryption are identity
   operations. *)
let nop = { id = 255 }

let is_nop t = t.id = nop.id
let all = [ paper_md5_des; nop ]
let of_id id = List.find_opt (fun s -> s.id = id) all
let name t = if is_nop t then "nop" else "md5/des-cbc (paper)"
