(** Version compatibility shim over OCaml 5 Domains.

    The sharded datapath ({!Fbsr_fbs.Sharded}) wants one domain per shard
    on OCaml 5 and a plain sequential loop on 4.14, where the Domain
    module does not exist.  Dune selects one of two implementations at
    build time ([domain_shim_multicore.ml-in] on >= 5.0.0,
    [domain_shim_single.ml-in] otherwise), so everything above this
    module is version-independent.  The choice is fixed by the compiler:
    nothing at run time changes it. *)

val parallelism_available : bool
(** Build-time constant: [true] iff {!parallel_run} may actually run
    thunks concurrently ([true] on OCaml 5, [false] on 4.14). *)

val recommended_domain_count : unit -> int
(** [Domain.recommended_domain_count ()] on OCaml 5; always [1] on
    4.14. *)

type 'a local
(** Domain-local storage: one value per domain on OCaml 5 (via
    [Domain.DLS]), a single mutable cell on 4.14 where there is only
    ever one domain. *)

val local_make : (unit -> 'a) -> 'a local
(** [local_make init] creates a slot; [init] runs (per domain, lazily,
    on OCaml 5) to produce the initial value. *)

val local_get : 'a local -> 'a
val local_set : 'a local -> 'a -> unit

val parallel_run : (unit -> 'a) array -> 'a array
(** [parallel_run thunks] runs every thunk and returns their results in
    order.  On OCaml 5 thunk 0 runs on the calling domain and the rest
    on freshly spawned domains; on 4.14 (or with fewer than two thunks)
    they run sequentially.
    If any thunk raises, every other thunk still runs to completion
    (domains are always joined) and the lowest-index exception is
    re-raised afterwards. *)
