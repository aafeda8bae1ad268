(* CRC-32 (IEEE 802.3 polynomial, reflected).  The paper (Section 5.3)
   recommends CRC-32 as the randomising hash for indexing the key caches,
   because cache inputs (local addresses, sequential sfl values) are highly
   correlated and simple modulo/XOR hashing would cluster them. *)

let polynomial = 0xedb88320

let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := polynomial lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

(* One byte into the complemented register [c]. *)
let step c b = Array.unsafe_get table ((c lxor b) land 0xff) lxor (c lsr 8)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := step !c (Char.code (String.unsafe_get s i))
  done;
  !c lxor 0xffffffff

let string s = update 0 s 0 (String.length s)

(* Hash helpers used by the cache modules: fold small integers through the
   CRC without building an intermediate string, complementing the
   register once per call. *)

let update_byte crc b = step (crc lxor 0xffffffff) b lxor 0xffffffff

let step32 c v = step (step (step (step c (v lsr 24)) (v lsr 16)) (v lsr 8)) v

let update_int32 crc v = step32 (crc lxor 0xffffffff) v lxor 0xffffffff

let update_int64 crc (v : int64) =
  let hi = Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff in
  let lo = Int64.to_int (Int64.logand v 0xffffffffL) in
  step32 (step32 (crc lxor 0xffffffff) hi) lo lxor 0xffffffff
