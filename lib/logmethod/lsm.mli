(** The persistent, crash-safe logarithmic method: LSM-style ingestion
    over on-disk PR-tree components.

    This is the paper's Section-4 logarithmic method, made durable.  An
    index is a directory:

    - [MANIFEST-%06d] — the CRC'd atomic-rename component manifest
      ({!Prt_storage.Manifest}): the live component set, the WAL floor,
      unresolved tombstones, the next sequence number.
    - [c%06d.idx] — one crash-consistent PR-tree {!Prt_rtree.Index_file}
      per component, bulk-loaded, immutable once published.
    - [wal-%06d.log] — CRC-framed WAL segments ({!Prt_storage.Wal}).
      An insert is acknowledged only after its record is appended (and,
      with [~wal_sync:`Always], fsynced); the entry then lives in the
      in-memory buffer until a merge absorbs it into a component.  The
      buffer is packed: coordinate columns and an id column, dense in
      slots, with an id -> slot table (a delete moves the last slot
      into the hole).

    When the buffer fills, it is sealed and merged — together with
    every live component below the first slot that fits — into a fresh
    component, then published by one manifest swap.  The merge holds
    every entry it absorbs in one array and bulk-loads the component
    from it in memory: the external loader would bound no memory there,
    and its sort scratch pages would only inflate the component file.
    The component file is fsynced before it is renamed into place, so
    the manifest that names it (and moves the WAL floor past the
    records it absorbed) never names pages a power loss could drop.
    Merges run under the shared {!Prt_storage.Retry} engine: transient
    faults are retried with backoff, a breaker guards against a broken
    device, and an exhausted budget aborts cleanly — the half-built
    file is deleted, the sealed buffer stays queryable and durable in
    its WAL segments, and the next trigger retries.  A crash at any
    kill point (WAL append, component build and sync, manifest swap,
    post-merge cleanup) reopens to exactly the pre-merge or post-merge
    component set with every acknowledged insert intact: WAL segments at
    or above the manifest floor are replayed, and anything else in the
    directory (half-built components, stale WAL segments, [.tmp]
    manifests) is an orphan, reclaimed and counted.

    Queries fan out across the buffer, the sealed buffer and every
    component.  The buffers are scanned column by column with
    {!Prt_geom.Rect.intersects}' closed-interval test, boxing an entry
    only for a hit.  Each component is read at the view (generation,
    root, height) taken once when it was opened or built — a published
    component is never written again, so no read pins it — through the
    snapshot path, so reader domains never touch the single-domain
    buffer pool.  Queries filter the tombstone set as it stood when
    they started (an immutable set, captured without a copy), and merge
    per-component completeness labels into one honest combined label: a
    component that fails to open degrades only its own contribution
    ([Partial]), never the store. *)

type t

type wal_sync = [ `Always  (** fsync per insert: acknowledged = durable *) | `Never ]

val create :
  ?buffer_capacity:int ->
  ?page_size:int ->
  ?wal_sync:wal_sync ->
  ?retry_policy:Prt_storage.Retry.policy ->
  ?faults:Prt_storage.Failpoint.t ->
  ?crash:Prt_storage.Failpoint.t ->
  ?background:bool ->
  string ->
  t
(** [create dir] initialises a fresh store (the directory is created if
    missing; raises [Invalid_argument] if it already holds a manifest).

    [buffer_capacity] (default 1024) is M0: slot [i] holds up to
    [buffer_capacity * 2^i] entries.  [wal_sync] (default [`Always])
    controls per-insert fsync.  A merge holds every entry of the
    component it builds in memory.  [faults]
    injects {!Prt_storage.Pager.Io_error}s into WAL/manifest/rename
    file operations (absorbed by the retry engine, aborting merges when
    exhausted).  [crash] is the kill-point budget, shared across
    component-build page writes and file operations.  [background]
    (default false) runs merges on a dedicated domain: inserts seal the
    buffer and return; queries stay honest throughout. *)

val open_ :
  ?buffer_capacity:int ->
  ?page_size:int ->
  ?wal_sync:wal_sync ->
  ?retry_policy:Prt_storage.Retry.policy ->
  ?faults:Prt_storage.Failpoint.t ->
  ?crash:Prt_storage.Failpoint.t ->
  ?background:bool ->
  string ->
  t
(** Open an existing store: load the newest valid manifest, open every
    component (a failure degrades that component, not the open), replay
    WAL segments at or above the floor, reclaim orphans.  [crash] is
    armed only after recovery completes, so it sweeps the next
    operation's kill points.  Raises [Failure] when no valid manifest
    survives, and {!Prt_storage.Superblock.Unsupported_format} when a
    component was written by another on-disk format (a store of
    format-2 components, say: none of them could be read). *)

val insert : t -> Prt_rtree.Entry.t -> unit
(** Append to the WAL, add to the buffer, trigger an absorb when full.
    Acknowledged (returned) means the record is in the WAL — replayed
    on any subsequent open.  A failed absorb never fails the insert
    (the entry is durable; the merge retries later).  Raises
    [Invalid_argument], with nothing logged, on a rectangle that
    {!Prt_rtree.Node.decode} would refuse (one with a NaN coordinate: a
    component page holding it could not be read again), on an id
    already buffered, or on an id with an unresolved tombstone — a dead
    copy of that id still lives in a component, and the id-keyed
    tombstone cannot tell it apart from a re-insert.  A deleted id
    becomes insertable again once a merge resolves its tombstone
    ({!flush}/{!compact} forces that). *)

val delete : t -> Prt_rtree.Entry.t -> bool
(** Remove a buffered entry or tombstone a sealed or component-resident
    one (matched by id and rectangle), WAL-logged either way.  A
    tombstone lasts until a merge resolves it (in the WAL or manifest),
    and blocks re-insertion of the id meanwhile (see {!insert}).
    [false] if absent. *)

val flush : t -> unit
(** Seal the buffer and merge now, raising on failure
    ({!Prt_storage.Pager.Io_error} after retries exhaust, or
    [Simulated_crash]) — unlike the absorb triggered by {!insert},
    which records the abort and keeps going. *)

val compact : t -> unit
(** Merge everything live into a single component, resolving every
    reachable tombstone.  Raises like {!flush}. *)

val query :
  ?deadline:Prt_util.Deadline.t ->
  t ->
  Prt_geom.Rect.t ->
  f:(Prt_rtree.Entry.t -> unit) ->
  Prt_rtree.Rtree.query_stats
(** Window query across buffer, sealed buffer and all components, with
    tombstoned entries filtered out.  [matched] counts delivered
    entries; visit counts and skip/timeout fields accumulate across
    components ({!Prt_rtree.Rtree.merge_stats}), so
    [Rtree.completeness] of the result is the combined label.  Safe
    from any domain, concurrently with inserts and merges. *)

val query_list :
  ?deadline:Prt_util.Deadline.t ->
  t ->
  Prt_geom.Rect.t ->
  Prt_rtree.Entry.t list * Prt_rtree.Rtree.query_stats

val query_batch :
  ?jobs:int ->
  ?deadline:Prt_util.Deadline.t ->
  t ->
  Prt_geom.Rect.t array ->
  (Prt_rtree.Entry.t list * Prt_rtree.Rtree.query_stats) array
(** Batched fan-out: each live component's windows run through its
    {!Prt_rtree.Qexec} executor (work-stealing domains, snapshot-pinned
    batches), buffer matches are appended, and slot [i] carries the
    combined stats for window [i]. *)

val count : t -> int
(** Live entries (inserted minus deleted). *)

val components : t -> (int * int) list
(** Occupied slots as [(level, entries)], failed components included,
    sorted by level. *)

val buffer_size : t -> int
(** Entries buffered in memory (active + sealed). *)

(** The ingestion stats surfaced by [prt stats] and the bench. *)
type stats = {
  s_components : (int * int * bool) list;
      (** (level, entries, healthy) per component, sorted by level *)
  s_buffer : int;  (** active in-memory buffer entries *)
  s_sealed : int;  (** sealed entries awaiting merge *)
  s_tombstones : int;
  s_wal_bytes : int;  (** bytes pending replay on a reopen *)
  s_wal_segments : int;
  s_replayed : int;  (** WAL records replayed when this handle opened *)
  s_orphans_reclaimed : int;  (** orphan files deleted when this handle opened *)
  s_last_merge : string;
  s_merges : int;  (** merges committed through this handle *)
  s_merge_aborts : int;
  s_bytes_acked : int;  (** payload bytes acknowledged through this handle *)
  s_bytes_written : int;  (** WAL bytes + component pages written: write amp numerator *)
}

val stats : t -> stats

val wait_merges : t -> unit
(** Block until no merge is in flight and nothing is sealed (background
    mode; immediate otherwise).  A pending merge that keeps aborting is
    waited on only once — the abort clears the in-flight flag. *)

val validate : t -> unit
(** Structurally validate every healthy component
    ([Prt_rtree.Audit.validate], which raises [Prt_rtree.Audit.Invalid])
    and the count bookkeeping.  Call it quiescently (no concurrent
    merge). *)

val close : t -> unit
(** Sync the WAL, stop the merge domain, close every component.
    Buffered entries are NOT merged — they are durable in the WAL and
    replayed by the next open.  Idempotent. *)

val dir : t -> string
