(** Batched multicore query executor.

    Runs an array of window queries across OCaml 5 domains with chunked
    work-stealing.  Results are deterministic: slot [i] of the output is
    exactly what [Rtree.query_list tree queries.(i)] returns, whatever
    the domain count or scheduling.

    {!run_into} is the executor: slot [i]'s hits and statistics land in
    a caller-owned {!Rtree.hits} buffer, unboxed, so a batch allocates
    nothing per hit and the buffers are reused batch after batch (the
    server writes its replies straight from them).  {!run} is the list
    form over the same batch skeleton — admission, snapshot pin and
    release, page source and policy, work-stealing — for callers that
    want entries.

    Domain safety and snapshot isolation: each batch runs against a
    {!snap} acquired from the executor's snapshot provider at batch
    start.  For an index file the provider pins the current committed
    superblock generation ({!Index_file.executor}), so the whole batch
    descends that generation's page images even while a writer commits
    new ones — writers never block readers.  Every worker runs the one
    descent engine ({!Rtree.descend_into}, or its callback form for
    {!run}) on the batch's snapshot.  On
    the mmap backend the workers scan the shared file mapping, guarded
    by the CRC gate and, at a pinned generation, the version-store
    protocol.  On pread, internal pages are served as page images from
    a {!Prt_storage.Shard_cache} keyed by (page id, generation), and
    leaf pages are read through [Pager.read_shared ~gen]; both are
    scanned in place.  The single-domain buffer pool is only touched by
    the default (live-tree) provider, which flushes it and requires the
    tree to stay unmodified for the duration of the batch. *)

type t

type snap = {
  snap_gen : int;  (** generation to read at; 0 = live, no pin *)
  snap_root : int;  (** root page of that generation's tree *)
  snap_height : int;
  snap_release : unit -> int;
      (** drop the pin (idempotent); returns the new pin floor, below
          which cached pages are pruned *)
}
(** One batch's pinned view of the tree, produced by the snapshot
    provider passed to {!create}. *)

exception Overloaded of { in_flight : int; limit : int }
(** Raised by {!run_into} and {!run} when admission control rejects a batch: admitting
    it would push the executor past [max_in_flight] queries.  Shedding
    load beats queueing it unboundedly — the caller knows immediately
    and can back off. *)

val create :
  ?snapshot:(unit -> snap) ->
  ?quarantine:Prt_storage.Quarantine.t ->
  ?max_in_flight:int ->
  Rtree.t ->
  t
(** [snapshot] is called at each batch start and its release hook when
    the batch ends (even on exceptions).  The default provider flushes
    the tree's buffer pool and reads the live tree unpinned (generation
    0) — correct only for trees not modified during a batch; executors
    over an {!Index_file} get a pinning provider instead.
    [quarantine] shares a damage registry with the rest of the serving
    stack (an {!Index_file} passes its own); a private one is created
    otherwise.  [max_in_flight] bounds the queries admitted
    concurrently across batches (default unbounded); see
    {!Overloaded}. *)

val tree : t -> Rtree.t

val quarantine : t -> Prt_storage.Quarantine.t
(** The executor's damage registry (shared or private). *)

val run_into :
  ?jobs:int ->
  ?deadline:Prt_util.Deadline.t ->
  t ->
  Prt_geom.Rect.t array ->
  into:Rtree.hits array ->
  unit
(** Execute the batch on [jobs] domains (default
    [Parallel.default_domains ()]; the coordinating domain is one of
    them). Emits a ["qexec.batch"] span plus per-domain flight-recorder
    spans; each worker records its own query statistics into the
    domain-striped [query.*] metrics (identical totals to the same
    queries run sequentially) and rejected batches tick
    [resilience.batches_rejected].

    Resilience contract: a poisoned page degrades only the subtrees that
    reach it — never a whole query, never the batch.  Each slot's
    [query_stats] carries its own completeness ({!Rtree.completeness});
    quarantined ids are skipped without touching the device.  [deadline]
    applies to the batch: each query checks it per node visit and
    returns [Timed_out] partial results past expiry (queries scheduled
    after expiry return empty [Timed_out] results).  Raises only
    {!Overloaded} (admission) — device damage never escapes.

    Query [i]'s results and statistics land in [into.(i)] (see
    {!Rtree.query_into}); [into] may be longer than the batch, and
    slots past it are left alone.  Raises [Invalid_argument] when it
    is shorter. *)

val run :
  ?jobs:int ->
  ?deadline:Prt_util.Deadline.t ->
  t ->
  Prt_geom.Rect.t array ->
  (Entry.t list * Rtree.query_stats) array
(** {!run_into}'s list form: slot [i] is query [i]'s entries, in the
    order {!Rtree.query_list} returns them, and its statistics. Same
    admission, snapshot, telemetry and resilience contract. *)

val cache_stats : t -> Prt_storage.Shard_cache.stats
val cache_hit_ratio : t -> float
(** See {!Prt_storage.Shard_cache.hit_ratio}; [nan] before any lookup. *)
