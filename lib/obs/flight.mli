(** The event recorder: fixed-size per-domain rings of recent events,
    always on, and the only event store of the observability layer.

    Each domain writes only its own ring (no locks, one small
    allocation per event), so the recorder is cheap enough to leave
    running.  The rings hold points, failures and spans: the
    executor's and the LSM's [begin_span]/[end_span] pairs, and the
    {!Trace} spans around build phases, sort passes and query batches,
    whose end events carry {!Metrics} counter deltas.  Rings of exited
    domains keep their events — the most recent few are exactly what a
    postmortem needs — and only the oldest are recycled once enough
    domains have exited, bounding memory under domain churn.

    {!dump} is the one Chrome trace-event writer: a traced run
    ([PRT_TRACE]) writes the rings with it, and {!failure} does when a
    dump path is configured via the [PRT_FLIGHTREC] environment
    variable or {!set_dump_path}, so a [Corrupt_page], kill-point crash
    or fsck salvage leaves a timeline of what every domain was doing.

    Reading the rings while other domains still write is a racy
    snapshot by design: at worst the newest event of a live domain is
    misread, which is acceptable for a postmortem tool. *)

type kind = Begin | End | Point | Fail

type event = {
  fe_kind : kind;
  fe_name : string;
  fe_ts : int;  (** microseconds since process start *)
  fe_arg : int;  (** integer payload; [no_arg] when absent *)
  fe_note : string;  (** free-form detail; [""] when absent *)
  fe_args : (string * Json.t) list;
      (** named values: a span's arguments on its [Begin], its counter
          deltas on its [End] *)
}

val no_arg : int

val reserve : int -> unit
(** Grow the calling domain's ring to hold at least that many events,
    keeping what it holds.  Rings hold 2048 events unless reserved; a
    traced run reserves the ring of the domain that drives it, so the
    whole run's spans survive without every worker's ring growing. *)

val set_dump_path : string option -> unit
(** Where {!failure} writes its automatic postmortem; [None] (the
    default, unless [PRT_FLIGHTREC] is set) disables autodump. *)

val dump_path : unit -> string option

val begin_span : ?arg:int -> ?args:(string * Json.t) list -> string -> unit
val end_span : ?arg:int -> ?args:(string * Json.t) list -> string -> unit
(** Record span boundaries on the calling domain's ring.  Pairs are
    matched per ring at export time; an unmatched half degrades to an
    instant, never an invalid trace. *)

val point : ?arg:int -> ?note:string -> string -> unit
(** Record an instantaneous event. *)

val failure : ?arg:int -> ?note:string -> string -> unit
(** Record a failure event, then dump all rings to the configured dump
    path (if any).  Dump errors are swallowed — recording a failure
    never raises. *)

val events : unit -> (int * event list) list
(** Per-domain snapshot of the rings, oldest event first; rings that
    recorded nothing are omitted. *)

val total_recorded : unit -> int
(** Events ever recorded across current rings (recycled rings reset). *)

val dropped : unit -> int
(** Events lost to ring overflow across current rings. *)

val clear : unit -> unit
(** Empty every ring (for test isolation). *)

val chrome_json : unit -> Json.t
(** All rings as a Chrome trace-event document sorted by timestamp:
    each ring's balanced Begin/End pairs become ["X"] complete events
    on the domain's track carrying both halves' values, everything else
    instants.  Loadable in Perfetto and about:tracing. *)

val dump : string -> int
(** Write {!chrome_json} to a file; returns the event count. *)
