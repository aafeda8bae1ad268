(** The paper's Section 7.1 security flow policy: 5-tuple conversations with
    a THRESHOLD idle timeout, on a direct-mapped CRC-32-indexed flow state
    table (Figure 7).  Optional rekeying extensions rotate the sfl on byte
    or lifetime limits. *)

type t

type counters = {
  mutable collisions : int;
  mutable expirations : int;
  mutable rekeys : int;
}

val make :
  ?fst_size:int ->
  ?threshold:float ->
  ?max_flow_bytes:int ->
  ?max_flow_life:float ->
  alloc:Sfl.allocator ->
  unit ->
  t

val map : t -> now:float -> Fam.attrs -> Sfl.t * Fam.decision
val sweep : t -> now:float -> int
val active : t -> now:float -> int
val counters : t -> counters

val policy :
  ?fst_size:int ->
  ?threshold:float ->
  ?max_flow_bytes:int ->
  ?max_flow_life:float ->
  alloc:Sfl.allocator ->
  unit ->
  Fam.policy

val policy_with_state :
  ?fst_size:int ->
  ?threshold:float ->
  ?max_flow_bytes:int ->
  ?max_flow_life:float ->
  alloc:Sfl.allocator ->
  unit ->
  Fam.policy * t

val tuple_hash :
  protocol:int -> src:string -> src_port:int -> dst:string -> dst_port:int -> int
