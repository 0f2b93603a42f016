(** Failpoint-instrumented file-system operations.

    The WAL and the component manifest are plain files, not pages of a
    {!Pager} — so the fault injection and kill-point machinery the paged
    stack gets from {!Pager.wrap_faulty}/{!Pager.arm_crash} does not
    reach them.  This module closes that gap: every operation the
    ingestion subsystem performs outside a pager (appends, fsync,
    directory sync, rename, unlink, file creation) goes through an
    [Fsops.t] that first consults an optional fault policy and an
    optional crash budget.

    Both failpoints are ordinary {!Failpoint.t} values, so a single
    crash budget shared with [Index_file.create ~crash] sweeps one
    unified ordinal space: physical page writes of a component build and
    the rename/fsync/dir-sync transitions of a manifest swap are all
    kill points of the same deterministic matrix.

    Fault semantics mirror the pager wrapper: a [write_error] verdict
    raises {!Pager.Io_error} with nothing persisted, a [torn_write]
    verdict persists only a prefix of the chunk and then raises
    {!Pager.Io_error} (callers repair by truncating back before a
    retry).  {!Failpoint.Simulated_crash} always propagates with
    whatever prefix of the operation sequence already persisted — the
    reopen path must cope with exactly that state. *)

type t

val create : ?faults:Failpoint.t -> ?crash:Failpoint.t -> unit -> t
(** [faults] is consulted ({!Failpoint.on_write}) before every
    operation; [crash] is the kill-point budget
    ({!Failpoint.on_phys_write}).  Either may be armed later. *)

val plain : unit -> t
(** No injection: operations hit the OS directly. *)

val set_crash : t -> Failpoint.t option -> unit
(** Arm (or disarm) the crash budget — e.g. only after recovery, so the
    reopen path itself is not swept. *)

val crash : t -> Failpoint.t option
val set_faults : t -> Failpoint.t option -> unit
val faults : t -> Failpoint.t option

val kill_point : t -> unit
(** Consult the crash budget once (a no-op when disarmed).  Exposed so
    callers can place extra kill points at their own state transitions
    (e.g. between the two halves of a WAL frame, to model torn tails). *)

val write : t -> Unix.file_descr -> bytes -> unit
(** Append [bytes] at the descriptor's current offset, in two chunks
    with a kill point before each — so a crash budget can leave a torn
    tail.  Raises {!Pager.Io_error} on an injected fault (a torn-write
    verdict persists a prefix first; the caller must truncate back
    before retrying).  With neither a fault policy nor a crash budget
    set, the bytes go out in one [write(2)] (looping only over short
    writes). *)

val fsync : t -> Unix.file_descr -> unit
(** Injected faults raise {!Pager.Io_error}; transient, safe to retry. *)

val fsync_dir : t -> string -> unit
(** Open the directory read-only, fsync it, close — the step that makes
    a rename durable.  Injected faults raise {!Pager.Io_error}. *)

val rename : t -> src:string -> dst:string -> unit
(** [Unix.rename] with a fault verdict and a kill point in front: the
    atomic-publish step of the manifest and of component finalization. *)

val unlink : t -> string -> unit
(** Remove a file, tolerating [ENOENT] (cleanup paths are idempotent
    across crashes).  Carries a kill point but no fault verdict —
    failing a cleanup would only leak work the next open reclaims
    anyway. *)

val create_file : t -> string -> Unix.file_descr
(** Create (truncate) a file open for read/write, with a kill point in
    front.  Raises {!Pager.Io_error} on an injected fault. *)
