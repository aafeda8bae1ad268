(* Security flow labels.

   Section 5.3: "The essential requirement is that the same value of sfl
   not be assigned to two different flows.  This can be done by simply
   keeping a large (at least 64-bit) counter ... The initial value of the
   counter should be randomized to prevent attackers who try to exploit
   reuse of sfl values by continuously resetting the protocol subsystem."

   sfl values need not be random — they feed a one-way hash — so a counter
   with a randomized start is exactly right. *)

type t = int64

let equal (a : t) (b : t) = Int64.equal a b
let to_int64 t = t
let of_int64 (v : int64) : t = v
let pp ppf t = Fmt.pf ppf "sfl:%Lx" t

type allocator = { mutable next : int64; mutable allocated : int }

let allocator ~rng =
  (* Randomize the initial counter value across restarts. *)
  { next = Fbsr_util.Rng.next_int64 rng; allocated = 0 }

let fresh a =
  let v = a.next in
  a.next <- Int64.add a.next 1L;
  a.allocated <- a.allocated + 1;
  v

let allocated a = a.allocated
