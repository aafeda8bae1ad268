(** Flight recorder: a fixed-cadence, bounded ring of metric snapshots.

    Each [tick] past the cadence deadline snapshots every metric visible in
    the attached {!Metrics} registry into one row of a circular buffer, so a
    long run keeps the most recent [capacity] samples and a crashed or
    misbehaving interval can be reconstructed after the fact ("flight
    recorder", not "logger").

    Scalars record their value; histograms expand into three derived
    columns: [<name>.count], [<name>.sum], and [<name>.p99] — the latter a
    nearest-rank read over the *interval* bucket deltas (per-cadence tail,
    not lifetime-cumulative), which is what the health rules watch.

    The ["fbsr-timeseries/1"] artifact is delta-encoded: the first kept row
    is absolute, every later row stores per-column deltas (integral deltas
    as JSON ints), which keeps million-sample counter series compact and
    diff-friendly. *)

type t

val none : t
(** Shared disabled recorder: [tick] is a single branch. *)

val create :
  ?capacity:int -> ?cadence:float -> ?host:string -> metrics:Metrics.t -> unit -> t
(** [capacity] rows kept (default 1024); [cadence] seconds between
    snapshots on the driving clock (default 1.0); [host] labels the
    artifact. *)

val enabled : t -> bool
val cadence : t -> float

val tick : t -> now:float -> unit
(** Snapshot if [now] has reached the next cadence deadline (the first call
    always snapshots and anchors the cadence grid).  Cheap no-op between
    deadlines — safe to call from per-batch or per-event loops. *)

val force : t -> now:float -> unit
(** Unconditional snapshot (end-of-run flush). *)

val taken : t -> int
(** Total snapshots taken over the recorder's lifetime. *)

val kept : t -> int
(** Rows currently in the ring (at most [capacity]). *)

val names : t -> string list
(** Sorted column names seen so far (including derived histogram columns). *)

val series : t -> string -> (float * float) array
(** [(time, value)] pairs for one column, oldest first, over the kept rows.
    Rows snapshotted before the column first appeared report 0. *)

val last2 : t -> string -> float * float
(** [(previous, latest)] values of one column over the two most recent
    rows — the interval-delta read the health rules poll each cadence.
    Missing column or missing row reads as 0. *)

val to_json : t -> Json.t
(** ["fbsr-timeseries/1"]: [{schema; host; cadence; taken; kept; names;
    times; base; deltas}]. *)

val dashboard : Format.formatter -> t -> names:string list -> unit
(** Render one {!Chart.timeseries} panel, 64 columns by 10 rows, per
    named column. *)
