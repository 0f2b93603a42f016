(** Crash-consistent persistent index files.

    A paged device whose pages 0/1 hold a shadow superblock pair
    ({!Prt_storage.Superblock}); the R-tree root/height/count live in
    the superblock metadata blob.  Mutations run inside a transaction
    backed by the pager's pre-image journal and deferred frees, so a
    crash at any page-write boundary reopens to either the pre-operation
    or the post-operation tree — never a hybrid.  [fsck] analyses,
    repairs and (optionally) salvage-rebuilds damaged files. *)

module Buffer_pool = Prt_storage.Buffer_pool
module Superblock = Prt_storage.Superblock
module Scrub = Prt_storage.Scrub

type t

type backend = [ `Auto | `Mmap | `Pread ]
(** Read backend selector.  [`Auto] (the default) maps the file for
    query serving whenever the platform grants it — except when a crash
    failpoint is armed, where it stays on pread so fault injection
    remains visible to reads.  [`Mmap] attaches unconditionally (still
    degrading per page to pread when the mapping cannot be trusted);
    [`Pread] opts out of mapping entirely.  See DESIGN.md "Storage
    backends". *)

val create :
  ?page_size:int ->
  ?crash:Prt_storage.Failpoint.t ->
  ?shadow:bool ->
  ?backend:backend ->
  string ->
  build:(Buffer_pool.t -> Rtree.t) ->
  t
(** [create path ~build] formats a fresh index file and commits the tree
    produced by [build] (typically a bulk loader) as its first
    transaction.  [crash] arms a crash budget before the build, for
    kill-point harnesses.  [shadow] (default false) makes every commit
    also write post-image shadow copies of the pages it modified — the
    repair source for {!scrub_online} — at the cost of extra space. *)

val open_ :
  ?page_size:int ->
  ?crash:Prt_storage.Failpoint.t ->
  ?shadow:bool ->
  ?backend:backend ->
  string ->
  t
(** Open an existing index file, running superblock/journal recovery as
    needed ({!recovery} reports what was done).  [crash] is armed after
    recovery, so it sweeps kill points of the next operation only.
    Shadowing is sticky: a file already carrying a shadow chain keeps
    writing one regardless of [shadow]; pass [~shadow:true] to turn it
    on from the next commit.  Raises [Failure] when no valid superblock
    survives (see [fsck]). *)

val tree : t -> Rtree.t
val pool : t -> Buffer_pool.t
val pager : t -> Prt_storage.Pager.t
val superblock : t -> Superblock.t

val recovery : t -> Superblock.recovery
(** What recovery did when this handle was opened
    ([Superblock.no_recovery] for freshly created files). *)

val quarantine : t -> Prt_storage.Quarantine.t
(** The file's damage registry, shared by resilient queries
    ([Rtree.query ~quarantine]), the {!executor}'s batches and
    {!scrub_online} — one place where every layer reports and checks
    poisoned pages. *)

val shadowed : t -> bool
(** Whether commits on this handle write post-image shadow copies. *)

val read_backend : t -> string
(** The active read backend, ["mmap"] or ["pread"] — what the selector
    actually landed on, after platform and policy fallbacks. *)

val mmap_counters : t -> Prt_storage.Mmap_pager.counters option
(** Live mmap serving counters (mapped scans served, CRC verifications
    skipped via the per-generation memo, sweeps run, pread fallbacks).
    [None] on the pread backend. *)

val update : t -> (Rtree.t -> 'a) -> 'a
(** [update t f] runs the mutation [f] (inserts/deletes on [tree t])
    inside a transaction: begin, mutate, flush, atomic commit.  If [f]
    raises — including a simulated crash — nothing is committed and the
    handle is closed; the next {!open_} rolls the file back to the
    pre-operation tree. *)

(** {1 Generation snapshots}

    A snapshot pins the current committed superblock generation: until
    it is released, the storage layer retains the page images of that
    commit (pre-images of pages later transactions overwrite; pages
    they free stay parked), so queries against the snapshot see exactly
    that commit's tree even while {!update}s run concurrently on
    another thread of control — writers never block readers. *)

type snapshot

val snapshot : t -> snapshot
(** Pin the current committed generation.  Domain-safe; may race a
    committing {!update} (the snapshot is entirely pre-commit or
    entirely post-commit, never a mix). *)

val snapshot_gen : snapshot -> int
(** The pinned commit generation. *)

val snapshot_view : snapshot -> Rtree.snapshot_view
(** The pinned tree (generation, root, height) in the form
    [Rtree.query ~snapshot] takes. *)

val release_snapshot : snapshot -> unit
(** Drop the pin (idempotent).  Version memory held for the snapshot is
    reclaimed once the last pin of its generation drops; parked frees
    are recycled by the next transaction. *)

val with_snapshot : t -> (Rtree.snapshot_view -> 'a) -> 'a
(** [with_snapshot t f] pins, runs [f] on the view, and releases
    (also on exceptions). *)

val executor : ?max_in_flight:int -> t -> Qexec.t
(** A batched query executor over this file's tree.  Each batch pins
    the committed generation at batch start and descends its page
    images, so batches are immune to concurrent commits; the
    shard cache keys nodes by (page, generation) and prunes below the
    pin floor when batches release.  Shares the file's {!quarantine};
    [max_in_flight] enables admission control (see
    {!Qexec.Overloaded}). *)

val scrub_online : ?pages:int -> t -> Scrub.online_report
(** One increment of the live self-healing pass: verify the next [pages]
    (default 64) in-use pages past a persistent cursor, heal damaged
    pages whose post-image survives in the shadow chain by rewriting
    them in place, quarantine those it cannot prove, and clear
    quarantine entries that verify again.  Call it between transactions
    or batches — never concurrently with one.  Healing writes restore
    committed bytes outside any transaction, so a crash mid-heal just
    leaves the page damaged for the next pass.  Without {!shadowed},
    it still detects, quarantines and un-quarantines — it just cannot
    repair. *)

val shadow_pages : t -> int list
(** Page ids owned by the current shadow chain (directory pages and
    post-image copies), sorted.  Empty when the file carries none.
    These are live committed pages: reachability checks must treat them
    as such. *)

val shadow_lookup : t -> int -> bytes option
(** The committed post-image of a page, if the shadow chain holds one
    that still verifies. *)

val close : t -> unit
(** Flush and close.  Idempotent — a second close is a no-op — and
    releases any generation pins still held through this handle, so a
    forgotten snapshot cannot park deferred frees forever.  Safe to
    call after a crash path already closed the underlying pager. *)

val encode_meta : Rtree.t -> bytes
(** The superblock metadata blob (magic, root, height, count, shadow
    chain head — [-1] here; commits write the live head). *)

val decode_meta : Buffer_pool.t -> bytes -> Rtree.t
(** Rebuild a tree handle from a metadata blob {!encode_meta} or a
    commit wrote.  Raises [Invalid_argument] on a foreign blob. *)

(** {1 fsck} *)

type fsck_report = {
  fsck_tail_bytes : int;  (** torn trailing partial page dropped on open *)
  fsck_slots : string array;  (** description of both superblock slots *)
  fsck_recovery : Superblock.recovery option;  (** [None]: file unopenable *)
  fsck_commit : int option;
  fsck_error : string option;  (** why the file could not be opened *)
  fsck_tree_ok : bool;
  fsck_tree_error : string option;
  fsck_entries : int option;  (** entries reachable from the root *)
  fsck_scrub : Scrub.report option;
  fsck_salvaged : (int * string) option;  (** entries salvaged, output path *)
}

val fsck :
  ?page_size:int ->
  ?rebuild:string * (Buffer_pool.t -> Entry.t array -> Rtree.t) ->
  string ->
  fsck_report
(** Check an index file: tolerate and report a torn trailing partial
    page, classify both superblock slots, run recovery (journal
    rollback, truncation, twin-slot repair), walk the tree, and scrub
    every page.  With [rebuild = (output, loader)], additionally salvage
    every checksummed-valid leaf entry (deduplicated; skipping free
    pages and the superblock pair) and bulk-load them into a fresh index
    at [output] — the last resort when no valid superblock survives.
    The original file is never modified beyond recovery/repair. *)

val fsck_clean : fsck_report -> bool
val pp_fsck : Format.formatter -> fsck_report -> unit
