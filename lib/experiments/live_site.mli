(** The synthetic campus workload driven through real FBS stacks end to
    end: the measured analogue of the trace-driven figures. *)

type result = {
  datagrams_sent : int;
  datagrams_delivered : int;
  hosts : int;
  flows_started : int;
  mkd_fetches : int;
  master_key_computations : int;
  flow_key_computations : int;
  macs : int;
  tfkc_hit_rate : float;
  rfkc_hit_rate : float;
  replay_rejections : int;
  mac_failures : int;
}

val run :
  ?seed:int ->
  ?duration:float ->
  ?desktops:int ->
  ?tfkc_sets:int ->
  ?rfkc_sets:int ->
  ?faults:Fbsr_netsim.Link.profile ->
  unit ->
  result
(** [faults] runs the whole site over fault-injection links (see
    {!Fbsr_netsim.Link}); delivery then measures the stacks' loss
    tolerance rather than the clean-wire baseline. *)
