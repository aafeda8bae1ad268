(** Keyed work that waits (fetches and requests in flight, partial
    datagrams, recently seen datagrams, parked trace spans), in arrival
    order.  An entry may carry a deadline: {!expire} removes the entries
    due before a clock the caller passes in, in deadline order (ties in
    arrival order), at O(log n) each and O(1) when none is due.  Nothing
    in the table keeps a key or a value once its entry has left. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t
val length : ('k, 'v) t -> int
val find : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val add : ?deadline:float -> ('k, 'v) t -> 'k -> 'v -> unit
(** Append the key's entry as the newest, in place of any it had. *)

val remove : ('k, 'v) t -> 'k -> 'v option
val pop_oldest : ('k, 'v) t -> 'v option

val expire : ('k, 'v) t -> now:float -> unit
(** Remove every entry whose deadline is before [now]. *)
