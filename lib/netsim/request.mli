(** Requests in flight over the unreliable network, keyed by ['k]: each
    carries its waiters and the caller's per-request state ['s], is
    retransmitted with jittered exponential backoff until answered, and
    answers every waiter exactly once with an outcome ['a].  The MKD and
    the KDC and Photuris baselines each keep one table.  The
    requests are entries of a {!Fbsr_util.Pending} table; this module
    adds only the backoff timers, on the host's event engine, and a
    timer whose request has left the table does nothing. *)

type ('k, 's, 'a) t

val create :
  seed:int ->
  timeout:float ->
  max_attempts:int ->
  timed_out:'a ->
  Host.t ->
  ('k, 's, 'a) t
(** Attempt n waits [min 30 (timeout * 2^(n-1))] seconds spread by +-10%
    jitter, drawn from a stream seeded with [seed] xor the host address.
    After [max_attempts] transmissions the request completes with
    [timed_out]: through a dead network with [timeout] 2 s and 3 attempts
    that is 2 + 4 + 8 = 14 s +- 10% after the first transmission.
    @raise Invalid_argument on a nonpositive [timeout] or [max_attempts]. *)

val start : ('k, 's, 'a) t -> 'k -> 's -> send:(float -> unit) -> ('a -> unit) -> unit
(** Begin a request for a key with none in flight (see {!join}), with one
    waiter.  [send] transmits it, now and at each retransmission; its
    argument is the timeout armed behind that transmission. *)

val join : ('k, 's, 'a) t -> 'k -> ('a -> unit) -> bool
(** Queue a waiter on the request in flight for the key; [false], and
    nothing queued, when there is none. *)

val find : ('k, 's, 'a) t -> 'k -> 's option
(** The state of the request in flight for the key. *)

val complete : ('k, 's, 'a) t -> 'k -> 'a -> bool
(** Remove the key's request and answer its waiters in arrival order;
    [false] when none is in flight (a late or duplicated reply). *)

val retransmissions : ('k, 's, 'a) t -> int
(** Transmissions after the first, summed over every request. *)
