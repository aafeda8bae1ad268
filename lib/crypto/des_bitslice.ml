(* Bitsliced DES: up to 63 independent blocks per pass on untagged native
   ints (Biham's "fast new DES implementation" layout, adapted to
   OCaml's 63-bit int).  See DESIGN.md §6c "Bitsliced cross-flow kernel".

   Data layout.  Lane [l] (0..62) owns one fixed bit of every word
   (bit 31-l for lanes 0..31, bit 94-l for lanes 32..62 — all 63
   logical bits of a native int).  A block's 64 bits become 64 words:
   word [i] holds FIPS input bit [i+1] of all lanes.  Lanes 0..31 live
   in 32×32 bit-matrices (one for the big-endian high word, one for
   the low word) transposed in place with the Hacker's Delight
   masked-swap transpose; lanes 32..62 use a second matrix pair whose
   words are OR-ed in at bit offset 31 (their bit 0 is the 64th lane a
   63-bit int cannot hold).  In this domain every FIPS permutation
   (IP, FP, E, P, PC-2) is
   a renaming of word indices, so the only per-pass bit shuffling is
   the four transposes in and four out; the round function is the
   generated {!Des_sbox_circuits} evaluated once per S-box on whole
   words, giving all live lanes one DES round per ~1.7k ALU ops.

   Key schedules are not recomputed here: lanes feed the packed
   [Des.sched_e]/[sched_d] words from PR 5's per-flow caches, and
   [load_keys] transposes them into 16×48 lane-mask words once per group
   composition.  A group's key words are never rebuilt: a lane that
   finishes its CBC chain early keeps encrypting all-zero inputs as junk
   that the gather simply skips.

   All scratch lives in a per-domain record behind
   [Fbsr_util.Domain_shim.local_make]: the sharded engine runs one
   pipeline, with its own batch, per domain, and any of them may run a
   lockstep pass concurrently, so the lane matrices cannot be
   module-global.  Each public entry point fetches its domain's scratch
   once and threads it through the helpers. *)

let lanes = 63

(* --- 32×32 bit-matrix transpose (Hacker's Delight 7-3), in place.
   Convention: rows are array indices top-down, columns are bit
   positions MSB-left, so afterwards bit b of word i = former bit
   (31-i) of word (31-b).  The masked-swap network is its own
   inverse.  Feeding per-lane rows in therefore leaves lane [l]'s data
   at bit (31-l) of the per-bit words — and makes the word-index side
   an identity: the word for big-endian-high-word bit j (i.e. FIPS
   input bit 32-j) lands at array index 31-j, so index i = FIPS input
   bit i+1 with no renaming at all. --- *)

let transpose32 (a : int array) =
  (* stages unrolled with literal shift/mask constants so each 16-swap
     stage is an independent-iteration for-loop the compiler schedules
     well; k enumerates the indices with the stage bit clear *)
  for k = 0 to 15 do
    let x = Array.unsafe_get a k and y = Array.unsafe_get a (k + 16) in
    let t = (x lxor (y lsr 16)) land 0xFFFF in
    Array.unsafe_set a k (x lxor t);
    Array.unsafe_set a (k + 16) (y lxor (t lsl 16))
  done;
  for i = 0 to 15 do
    let k = ((i lsr 3) lsl 4) lor (i land 7) in
    let x = Array.unsafe_get a k and y = Array.unsafe_get a (k + 8) in
    let t = (x lxor (y lsr 8)) land 0x00FF00FF in
    Array.unsafe_set a k (x lxor t);
    Array.unsafe_set a (k + 8) (y lxor (t lsl 8))
  done;
  for i = 0 to 15 do
    let k = ((i lsr 2) lsl 3) lor (i land 3) in
    let x = Array.unsafe_get a k and y = Array.unsafe_get a (k + 4) in
    let t = (x lxor (y lsr 4)) land 0x0F0F0F0F in
    Array.unsafe_set a k (x lxor t);
    Array.unsafe_set a (k + 4) (y lxor (t lsl 4))
  done;
  for i = 0 to 15 do
    let k = ((i lsr 1) lsl 2) lor (i land 1) in
    let x = Array.unsafe_get a k and y = Array.unsafe_get a (k + 2) in
    let t = (x lxor (y lsr 2)) land 0x33333333 in
    Array.unsafe_set a k (x lxor t);
    Array.unsafe_set a (k + 2) (y lxor (t lsl 2))
  done;
  for i = 0 to 15 do
    let k = i lsl 1 in
    let x = Array.unsafe_get a k and y = Array.unsafe_get a (k + 1) in
    let t = (x lxor (y lsr 1)) land 0x55555555 in
    Array.unsafe_set a k (x lxor t);
    Array.unsafe_set a (k + 1) (y lxor (t lsl 1))
  done

(* --- FIPS tables as 0-based word renamings --- *)

(* E expansion (the scalar kernel fuses it into its SP tables, so it is
   transcribed here; the differential battery pins it to
   [Fbsr_oracles.Des_ref]). *)
let e_table =
  [| 32;  1;  2;  3;  4;  5;  4;  5;  6;  7;  8;  9;
      8;  9; 10; 11; 12; 13; 12; 13; 14; 15; 16; 17;
     16; 17; 18; 19; 20; 21; 20; 21; 22; 23; 24; 25;
     24; 25; 26; 27; 28; 29; 28; 29; 30; 31; 32;  1 |]

let ip_l = Array.init 32 (fun i -> Des_kernel.ip_table.(i) - 1)
let ip_r = Array.init 32 (fun i -> Des_kernel.ip_table.(i + 32) - 1)
let fp_src = Array.init 64 (fun i -> Des_kernel.fp_table.(i) - 1)
let e0 = Array.init 48 (fun i -> e_table.(i) - 1)

(* Packed-schedule bit positions: round subkey bit i (0..47) of a
   [Des.sched_e] schedule lives in word [2*round + kb_word.(i)] at bit
   [kb_shift.(i)] (the kernel packs 6-bit chunks 0,2,4,6 in the even
   word and 1,3,5,7 in the odd word, at shifts 26/18/10/2). *)
let kb_word = Array.init 48 (fun i -> (i / 6) land 1)

let kb_shift =
  Array.init 48 (fun i ->
      let j = i / 6 and m = i mod 6 in
      26 - (8 * (j lsr 1)) + 5 - m)

(* --- Per-domain scratch --- *)

(* Pure index halves of the fused IP/FP gathers: module-global is fine,
   they are written once at module init and only read after. *)
let ip_l_idx =
  Array.init 32 (fun i -> if ip_l.(i) < 32 then ip_l.(i) else ip_l.(i) - 32)

let ip_r_idx =
  Array.init 32 (fun i -> if ip_r.(i) < 32 then ip_r.(i) else ip_r.(i) - 32)

let fp_hi_idx =
  Array.init 32 (fun i ->
      if fp_src.(i) < 32 then fp_src.(i) else fp_src.(i) - 32)

let fp_lo_idx =
  Array.init 32 (fun i ->
      if fp_src.(32 + i) < 32 then fp_src.(32 + i) else fp_src.(32 + i) - 32)

type scratch = {
  hi_a : int array; (* lanes 0..31, big-endian high word *)
  hi_b : int array; (* lanes 32..62 (index 31 stays zero) *)
  lo_a : int array;
  lo_b : int array;
  l_arr : int array;
  r_arr : int array;
  kw : int array; (* lane-mask subkey words *)
  (* IP fused with the transposed-word assembly: post-transpose index i
     of the hi/lo matrices is FIPS input bit i+1 / i+33, so L0 bit i+1
     reads matrix pair [ip_?_a/_b] at index [ip_?_idx] — the array
     pointers are precomputed per position to keep the gather
     branchless; they alias this record's own matrices, so they are
     rebuilt per scratch. *)
  ip_l_a : int array array;
  ip_l_b : int array array;
  ip_r_a : int array array;
  ip_r_b : int array array;
  (* FP fused the same way: output bit i+1 = preoutput bit fp_src.(i),
     preoutput = R16 (bits 1..32) then L16; after the even number of
     round swaps R16/L16 sit in the physical [r_arr]/[l_arr]. *)
  fp_hi_arr : int array array;
  fp_lo_arr : int array array;
  (* key loading *)
  ka : int array;
  kb : int array;
  sched_scratch : int array array;
  (* CBC chaining state *)
  ch_hi : int array;
  ch_lo : int array;
  nb_scratch : int array;
  full_scratch : int array;
  fin_hi : int array;
  fin_lo : int array;
}

let make_scratch () =
  let hi_a = Array.make 32 0
  and hi_b = Array.make 32 0
  and lo_a = Array.make 32 0
  and lo_b = Array.make 32 0
  and l_arr = Array.make 32 0
  and r_arr = Array.make 32 0 in
  {
    hi_a;
    hi_b;
    lo_a;
    lo_b;
    l_arr;
    r_arr;
    kw = Array.make (16 * 48) 0;
    ip_l_a = Array.init 32 (fun i -> if ip_l.(i) < 32 then hi_a else lo_a);
    ip_l_b = Array.init 32 (fun i -> if ip_l.(i) < 32 then hi_b else lo_b);
    ip_r_a = Array.init 32 (fun i -> if ip_r.(i) < 32 then hi_a else lo_a);
    ip_r_b = Array.init 32 (fun i -> if ip_r.(i) < 32 then hi_b else lo_b);
    fp_hi_arr =
      Array.init 32 (fun i -> if fp_src.(i) < 32 then r_arr else l_arr);
    fp_lo_arr =
      Array.init 32 (fun i -> if fp_src.(32 + i) < 32 then r_arr else l_arr);
    ka = Array.make 32 0;
    kb = Array.make 32 0;
    sched_scratch = Array.make lanes [||];
    ch_hi = Array.make lanes 0;
    ch_lo = Array.make lanes 0;
    nb_scratch = Array.make lanes 0;
    full_scratch = Array.make lanes 0;
    fin_hi = Array.make lanes 0;
    fin_lo = Array.make lanes 0;
  }

let scratch = Fbsr_util.Domain_shim.local_make make_scratch

let clear_lanes s =
  Array.fill s.hi_a 0 32 0;
  Array.fill s.hi_b 0 32 0;
  Array.fill s.lo_a 0 32 0;
  Array.fill s.lo_b 0 32 0

let set_lane s l hi lo =
  if l < 32 then begin
    Array.unsafe_set s.hi_a l hi;
    Array.unsafe_set s.lo_a l lo
  end
  else begin
    Array.unsafe_set s.hi_b (l - 32) hi;
    Array.unsafe_set s.lo_b (l - 32) lo
  end

let lane_hi s l =
  if l < 32 then Array.unsafe_get s.hi_a l
  else Array.unsafe_get s.hi_b (l - 32)

let lane_lo s l =
  if l < 32 then Array.unsafe_get s.lo_a l
  else Array.unsafe_get s.lo_b (l - 32)

(* Fill [kw] from per-lane packed schedules ([ke_of l] is lane [l]'s
   [Des.sched_e]/[sched_d] array).  ~768×n single-bit gathers, done once
   per group composition and amortised over every pass the group runs. *)
(* Subkey-bit positions split by packed word, as (subkey index, 31-shift)
   so the transposed-word lookup below is a straight table walk. *)
let kb_split wsel =
  let idx = ref [] and tr = ref [] in
  for i = 47 downto 0 do
    if kb_word.(i) = wsel then begin
      idx := i :: !idx;
      tr := (31 - kb_shift.(i)) :: !tr
    end
  done;
  (Array.of_list !idx, Array.of_list !tr)

let kb_i0, kb_t0 = kb_split 0
let kb_i1, kb_t1 = kb_split 1

(* Fill [kw] from per-lane packed schedules ([ke_of l] is lane [l]'s
   [Des.sched_e]/[sched_d] array).  Gathering 768 subkey bits per lane
   one at a time would cost more than the encryption itself, so the
   packed words are run through the same 32×32 transpose as the data:
   two transposes per (round, packed word) turn all lanes' schedule
   words bit-planar at once, and the 24 used bit positions are copied
   out by table. *)
let load_keys s ke_of n =
  let { ka; kb; kw; sched_scratch; _ } = s in
  for l = 0 to n - 1 do
    sched_scratch.(l) <- ke_of l
  done;
  let na = if n < 32 then n else 32 in
  for rnd = 0 to 15 do
    let ko = rnd * 48 in
    for wsel = 0 to 1 do
      let w = (2 * rnd) + wsel in
      Array.fill ka 0 32 0;
      Array.fill kb 0 32 0;
      for l = 0 to na - 1 do
        Array.unsafe_set ka l
          (Array.unsafe_get (Array.unsafe_get sched_scratch l) w)
      done;
      for l = 32 to n - 1 do
        Array.unsafe_set kb (l - 32)
          (Array.unsafe_get (Array.unsafe_get sched_scratch l) w)
      done;
      transpose32 ka;
      transpose32 kb;
      let ki = if wsel = 0 then kb_i0 else kb_i1
      and kt = if wsel = 0 then kb_t0 else kb_t1 in
      for t = 0 to 23 do
        let b = Array.unsafe_get kt t in
        Array.unsafe_set kw (ko + Array.unsafe_get ki t)
          (Array.unsafe_get ka b lor (Array.unsafe_get kb b lsl 31))
      done
    done
  done

(* One full DES pass (IP, 16 rounds, FP) over the scattered lanes, in
   place, with the subkey words currently in [kw]. *)
let des_pass s =
  let {
    hi_a;
    hi_b;
    lo_a;
    lo_b;
    l_arr;
    r_arr;
    kw;
    ip_l_a;
    ip_l_b;
    ip_r_a;
    ip_r_b;
    fp_hi_arr;
    fp_lo_arr;
    _
  } =
    s
  in
  transpose32 hi_a;
  transpose32 hi_b;
  transpose32 lo_a;
  transpose32 lo_b;
  for i = 0 to 31 do
    let il = Array.unsafe_get ip_l_idx i in
    Array.unsafe_set l_arr i
      (Array.unsafe_get (Array.unsafe_get ip_l_a i) il
      lor (Array.unsafe_get (Array.unsafe_get ip_l_b i) il lsl 31));
    let ir = Array.unsafe_get ip_r_idx i in
    Array.unsafe_set r_arr i
      (Array.unsafe_get (Array.unsafe_get ip_r_a i) ir
      lor (Array.unsafe_get (Array.unsafe_get ip_r_b i) ir lsl 31))
  done;
  let l = ref l_arr and r = ref r_arr in
  for rnd = 0 to 15 do
    let ko = rnd * 48 in
    let rr = !r and ll = !l in
    let x i =
      Array.unsafe_get rr (Array.unsafe_get e0 i)
      lxor Array.unsafe_get kw (ko + i)
    in
    Des_sbox_circuits.s1 (x 0) (x 1) (x 2) (x 3) (x 4) (x 5) ll;
    Des_sbox_circuits.s2 (x 6) (x 7) (x 8) (x 9) (x 10) (x 11) ll;
    Des_sbox_circuits.s3 (x 12) (x 13) (x 14) (x 15) (x 16) (x 17) ll;
    Des_sbox_circuits.s4 (x 18) (x 19) (x 20) (x 21) (x 22) (x 23) ll;
    Des_sbox_circuits.s5 (x 24) (x 25) (x 26) (x 27) (x 28) (x 29) ll;
    Des_sbox_circuits.s6 (x 30) (x 31) (x 32) (x 33) (x 34) (x 35) ll;
    Des_sbox_circuits.s7 (x 36) (x 37) (x 38) (x 39) (x 40) (x 41) ll;
    Des_sbox_circuits.s8 (x 42) (x 43) (x 44) (x 45) (x 46) (x 47) ll;
    let t = !l in
    l := !r;
    r := t
  done;
  (* (the [fp_*_arr] tables rely on the swap count being even: R16/L16
     are back in the physical r_arr/l_arr) *)
  for i = 0 to 31 do
    (* the gates set junk above bit 62 (lnot runs the full native int)
       and bit 0 of a lifted B word aliases lane 0's A bit, so mask
       both group extractions down to their own lanes *)
    let w =
      Array.unsafe_get (Array.unsafe_get fp_hi_arr i)
        (Array.unsafe_get fp_hi_idx i)
    in
    Array.unsafe_set hi_a i (w land 0xFFFFFFFF);
    Array.unsafe_set hi_b i ((w lsr 31) land 0xFFFFFFFE);
    let w =
      Array.unsafe_get (Array.unsafe_get fp_lo_arr i)
        (Array.unsafe_get fp_lo_idx i)
    in
    Array.unsafe_set lo_a i (w land 0xFFFFFFFF);
    Array.unsafe_set lo_b i ((w lsr 31) land 0xFFFFFFFE)
  done;
  transpose32 hi_a;
  transpose32 hi_b;
  transpose32 lo_a;
  transpose32 lo_b

(* --- Single-block lanes (the differential battery's entry point) --- *)

let crypt_block_lanes sched_of keys blocks =
  let n = Array.length blocks in
  if Array.length keys <> n then
    invalid_arg "Des_bitslice: one key per block required";
  Array.iter
    (fun b ->
      if String.length b <> 8 then
        invalid_arg "Des_bitslice: blocks must be 8 bytes")
    blocks;
  let s = Fbsr_util.Domain_shim.local_get scratch in
  let out = Array.make n "" in
  let pos = ref 0 in
  while !pos < n do
    let p = !pos in
    let g = min lanes (n - p) in
    load_keys s (fun l -> sched_of keys.(p + l)) g;
    clear_lanes s;
    for l = 0 to g - 1 do
      let blk = blocks.(p + l) in
      set_lane s l (Des_kernel.read32 blk 0) (Des_kernel.read32 blk 4)
    done;
    des_pass s;
    for l = 0 to g - 1 do
      let b = Bytes.create 8 in
      Des_kernel.write32 b 0 (lane_hi s l);
      Des_kernel.write32 b 4 (lane_lo s l);
      out.(p + l) <- Bytes.unsafe_to_string b
    done;
    pos := p + g
  done;
  out

let encrypt_block_lanes keys blocks = crypt_block_lanes Des.sched_e keys blocks
let decrypt_block_lanes keys blocks = crypt_block_lanes Des.sched_d keys blocks

(* --- Cross-flow CBC jobs --- *)

type cbc_job = {
  key : Des.key;
  iv_hi : int;
  iv_lo : int;
  src : string;
  src_pos : int;
  src_len : int;
  dst : Bytes.t;
  dst_pos : int;
}

let cbc_job ~key ~iv ~src ~src_pos ~src_len ~dst ~dst_pos =
  if String.length iv <> 8 then
    invalid_arg "Des_bitslice.cbc_job: IV must be 8 bytes";
  if src_pos < 0 || src_len < 0 || src_pos > String.length src - src_len then
    invalid_arg "Des_bitslice.cbc_job: bad source range";
  let padded = src_len + 8 - (src_len mod 8) in
  if dst_pos < 0 || dst_pos > Bytes.length dst - padded then
    invalid_arg "Des_bitslice.cbc_job: bad destination range";
  {
    key;
    iv_hi = Des_kernel.read32 iv 0;
    iv_lo = Des_kernel.read32 iv 4;
    src;
    src_pos;
    src_len;
    dst;
    dst_pos;
  }

let job_blocks j = (j.src_len / 8) + 1

(* PKCS#7 final block of a job as two 32-bit words, mirroring the byte
   semantics of [Des.cbc_final_block]. *)
let final_words src src_pos src_len =
  let r = src_len land 7 in
  let base = src_pos + (src_len - r) in
  let pad = 8 - r in
  let word j0 =
    let w = ref 0 in
    for j = j0 to j0 + 3 do
      let b =
        if j < r then Char.code (String.unsafe_get src (base + j)) else pad
      in
      w := (!w lsl 8) lor b
    done;
    !w
  in
  (word 0, word 4)

(* Advance one ≤63-lane group of CBC chains in lockstep to completion.
   Returns the number of blocks encrypted. *)
let run_group s (jobs : cbc_job array) p g =
  let { ch_hi; ch_lo; nb_scratch; full_scratch; fin_hi; fin_lo; _ } = s in
  load_keys s (fun l -> Des.sched_e jobs.(p + l).key) g;
  clear_lanes s;
  let max_nb = ref 0 in
  for l = 0 to g - 1 do
    let j = jobs.(p + l) in
    ch_hi.(l) <- j.iv_hi;
    ch_lo.(l) <- j.iv_lo;
    let nb = job_blocks j in
    nb_scratch.(l) <- nb;
    full_scratch.(l) <- j.src_len / 8;
    let fh, fl = final_words j.src j.src_pos j.src_len in
    fin_hi.(l) <- fh;
    fin_lo.(l) <- fl;
    if nb > !max_nb then max_nb := nb
  done;
  let total = ref 0 in
  for step = 0 to !max_nb - 1 do
    for l = 0 to g - 1 do
      let nb = Array.unsafe_get nb_scratch l in
      if step < nb then
        if step < Array.unsafe_get full_scratch l then begin
          let j = Array.unsafe_get jobs (p + l) in
          let sp = j.src_pos + (step * 8) in
          set_lane s l
            (Array.unsafe_get ch_hi l lxor Des_kernel.read32 j.src sp)
            (Array.unsafe_get ch_lo l lxor Des_kernel.read32 j.src (sp + 4))
        end
        else
          set_lane s l
            (Array.unsafe_get ch_hi l lxor Array.unsafe_get fin_hi l)
            (Array.unsafe_get ch_lo l lxor Array.unsafe_get fin_lo l)
      else if step = nb then
        (* chain finished last step: retire the lane to all-zero input
           (it keeps encrypting junk; the gather below skips it) *)
        set_lane s l 0 0
    done;
    des_pass s;
    for l = 0 to g - 1 do
      if step < Array.unsafe_get nb_scratch l then begin
        let j = Array.unsafe_get jobs (p + l) in
        let hi = lane_hi s l and lo = lane_lo s l in
        let dp = j.dst_pos + (step * 8) in
        Des_kernel.write32 j.dst dp hi;
        Des_kernel.write32 j.dst (dp + 4) lo;
        Array.unsafe_set ch_hi l hi;
        Array.unsafe_set ch_lo l lo;
        incr total
      end
    done
  done;
  !total

(* Scalar fallback: one job through the table-driven kernel, byte-for-
   byte [Des.encrypt_cbc_into]. *)
let run_scalar (j : cbc_job) =
  let iv = Bytes.create 8 in
  Des_kernel.write32 iv 0 j.iv_hi;
  Des_kernel.write32 iv 4 j.iv_lo;
  let (_ : int) =
    Des.encrypt_cbc_into ~iv:(Bytes.unsafe_to_string iv) j.key ~src:j.src
      ~src_pos:j.src_pos ~src_len:j.src_len ~dst:j.dst ~dst_pos:j.dst_pos
  in
  job_blocks j

(* A lockstep pass costs about the same at any occupancy, so a group
   pays only once it replaces at least [pass cost / scalar chain cost]
   chains: for 1418-byte jobs 0.89-0.98 ms against 24-25 us a chain on
   a 2-core x86-64 box, crossing between 36 and 38 jobs in interleaved
   runs (DESIGN.md §6c). *)
let break_even_jobs = 37

let encrypt_cbc_jobs ?(threshold = break_even_jobs) jobs =
  let s = Fbsr_util.Domain_shim.local_get scratch in
  let n = Array.length jobs in
  let bitsliced = ref 0 and scalar = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let p = !pos in
    let g = min lanes (n - p) in
    if g >= threshold then bitsliced := !bitsliced + run_group s jobs p g
    else
      for l = p to p + g - 1 do
        scalar := !scalar + run_scalar jobs.(l)
      done;
    pos := p + g
  done;
  (!bitsliced, !scalar)

(* --- Deferred CBC decryption ---

   The receive batch parks a frame's body open until its flush.  CBC
   decryption has no chain to serialise it, so the scalar kernel's
   two-block loop ([Des_kernel.cbc_decrypt]) matches or beats a
   bitsliced pass at every occupancy (DESIGN.md §6c), and each parked
   open runs there. *)

type dec_job = {
  kd : int array; (* packed decrypt schedule *)
  div_hi : int;
  div_lo : int;
  d_src : string; (* borrowed until the run; not copied *)
  d_pos : int;
  nfull : int; (* full plaintext blocks still owed by the run *)
  out : Bytes.t; (* exact-size plaintext; tail already written *)
}

let dec_job ~key ~iv ~src ~src_pos ~src_len =
  (* The final block decrypts at construction: its padding byte sizes
     the output buffer, and a corrupt-padding frame must fail here, so
     batched and inline receive reject at the same point with the same
     exception. *)
  let out = Des.cbc_open_final ~iv key ~src ~pos:src_pos ~len:src_len in
  {
    kd = Des.sched_d key;
    div_hi = Des_kernel.read32 iv 0;
    div_lo = Des_kernel.read32 iv 4;
    d_src = src;
    d_pos = src_pos;
    nfull = (src_len / 8) - 1;
    out;
  }

let dec_job_out j = j.out

let decrypt_cbc_jobs jobs =
  Array.fold_left
    (fun blocks j ->
      Des_kernel.cbc_decrypt j.kd ~ivh:j.div_hi ~ivl:j.div_lo j.d_src j.d_pos
        j.nfull j.out 0;
      blocks + j.nfull)
    0 jobs
