(** A Zipf-popularity datagram stream over a fixed flow population.

    Rank [i] of the {!Zipf} distribution maps to a five-tuple flow
    between one host pair — UDP, source/destination ports spread so a
    million ranks yield a million distinct tuples.  One host pair means
    one master key: exactly the gateway-to-gateway regime where the
    paper's flow-key caches, not the DH exchange, dominate.  Batches
    come out as [(attrs, payload)] jobs ready for
    {!Fbsr_fbs.Sharded.send_all}. *)

type t

val create :
  ?seed:int ->
  ?payload:string ->
  flows:int ->
  src:Fbsr_fbs.Principal.t ->
  dst:Fbsr_fbs.Principal.t ->
  unit ->
  t
(** [flows] ranks (at most 3.6 billion distinct port pairs), Zipf with
    exponent 1; [payload] (default 256 bytes) is shared by every job —
    the datapath never mutates it.  Deterministic in [seed].
    @raise Invalid_argument if [flows] exceeds the port-pair space. *)

val batch : t -> int -> (Fbsr_fbs.Fam.attrs * string) array
(** [batch t k] draws the next [k] datagrams of the stream. *)

val touched : t -> int
(** Distinct flow ranks seen so far — climbs toward the flow count with the
    long tail. *)
