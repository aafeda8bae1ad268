(** Statistics toolkit for the flow-characteristic experiments. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
}

val summary : float array -> summary
val percentile : float array -> float -> float
(** Nearest-rank percentile, [p] in [0,100]. *)

val median : float array -> float

val cdf : float array -> (float * float) list
(** Sorted (value, fraction of samples <= value) points. *)

type log_histogram = {
  base : float;
  buckets : (float * float * int) list;  (** (lo, hi, count) *)
}

val log_histogram : ?base:float -> float array -> log_histogram

val bin_count : bin:float -> t_end:float -> float list -> int array
(** Count events per time bin over [0, t_end). *)
