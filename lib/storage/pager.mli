(** The simulated disk: fixed-size pages addressed by id, with every
    page read and write counted.

    All "I/O" numbers reported by the benchmark harness are observations
    of these counters — the OCaml analogue of the paper's TPIE block
    layer. The memory backend is used for experiments (it measures the
    algorithms, not the host filesystem); the file backend persists
    indexes for the CLI.

    Format v4 integrity: {!write} stamps every page with the {!Page}
    trailer (device LSN, format epoch, CRC-32C) and {!read} verifies the
    trailer on the file backend, raising {!Corrupt_page} on damage.  The
    module also provides the mechanisms {!Superblock} builds atomic
    commits from: an armed crash budget ({!arm_crash}), deferred frees,
    and a pre-image journal ({!begin_journal} / {!recover_journal}). *)

exception Io_error of string
(** A device-level I/O failure: raised by fault-injecting pagers (see
    {!wrap_faulty}) when the policy decides an operation fails.  Unlike
    [Invalid_argument] (caller bugs), an [Io_error] models the disk
    misbehaving and may succeed on retry — {!Buffer_pool} absorbs
    transient ones with bounded retries. *)

exception Corrupt_page of string
(** A page read back from the device failed trailer verification (torn
    write, bit rot, or a stale format epoch).  Deliberately distinct
    from {!Io_error}: the damage is on the platter, so retrying cannot
    help and retry loops let it propagate.  Run scrub/fsck instead. *)

type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

type snapshot = { s_reads : int; s_writes : int; s_allocs : int }
(** Immutable copy of the counters, for before/after accounting. *)

type t

val default_page_size : int
(** 4096 bytes, the block size used throughout the paper. *)

val create_memory : ?page_size:int -> unit -> t
(** Fresh in-memory device with zero pages.  The page size must exceed
    [Page.trailer_size]. *)

val create_file : ?page_size:int -> string -> t
(** Create (truncate) a file-backed device. *)

val open_file : ?page_size:int -> ?partial_tail:[ `Reject | `Truncate ] -> string -> t
(** Open an existing file-backed device.  If the file size is not a page
    multiple, the trailing fragment is a torn final write: with
    [`Reject] (the default) raise [Invalid_argument] (the descriptor is
    closed before raising — no fd leaks on the error path); with
    [`Truncate] (used by fsck) drop the fragment and open the remaining
    whole pages. *)

val wrap_faulty : t -> Failpoint.t -> t
(** [wrap_faulty pager fp] is a pager backed by [pager] whose reads,
    writes and allocations first consult the failure policy [fp]:
    transient faults raise {!Io_error}, torn writes persist only a
    prefix of the page, short reads clobber only a prefix of the buffer
    (the tail is poisoned with [0xAA]).  A torn page is persisted
    {e without} re-stamping, so its checksum no longer matches and a
    later {!read} reports {!Corrupt_page}.  The wrapper shares [pager]'s
    counters and free list, so with an all-zero policy it is
    observationally identical to [pager].  Closing the wrapper closes
    [pager].  If [fp] carries a crash budget it is armed on the base
    pager (see {!arm_crash}). *)

val arm_crash : t -> Failpoint.t -> unit
(** Attach a crash budget to the base pager: every physical page write
    (including internal journal and superblock writes) first consults
    [Failpoint.on_phys_write], so a {!Failpoint.Simulated_crash} can
    fire at any kill point of an operation. *)

val failpoint : t -> Failpoint.t option
(** The failure policy of a {!wrap_faulty} pager, [None] otherwise. *)

val page_size : t -> int

val payload_size : t -> int
(** Bytes per page available to codecs: [page_size - Page.trailer_size].
    The trailer is owned by this module. *)

val num_pages : t -> int
(** Number of pages ever allocated (including freed ones). *)

val corrupt_reads : t -> int
(** Reads that failed trailer verification so far (not reset by
    {!reset_stats}). *)

val alloc : t -> int
(** Allocate a page and return its id.  Freed pages are reused first.
    The returned page is always zero-filled — recycled pages are scrubbed
    on reuse, so stale bytes of a freed node can never be mistaken for
    live data by salvage tooling. *)

val free : t -> int -> unit
(** Return a page to the free list.  Raises [Invalid_argument] on double
    free or a bad id.  Under {!set_defer_frees} the page only becomes
    reusable after {!promote_frees}. *)

val is_free : t -> int -> bool
(** Is the page currently free (including deferred frees)?  Used by the
    audit's page-leak check. *)

val set_defer_frees : t -> bool -> unit
(** When on, {!free}d pages are parked on a pending list instead of the
    reusable free list, so an in-flight transaction can never recycle a
    page the last committed tree still references.  Turning it off
    promotes any pending frees. *)

val promote_frees : t -> unit
(** Move pending deferred frees onto the reusable free list (the commit
    point of a transaction). *)

val free_pages : t -> int list
(** All currently free page ids, pending ones included — the free-list
    snapshot persisted by the superblock. *)

val set_free_list : t -> int list -> unit
(** Replace the free list wholesale (ids outside the device are dropped);
    used when reopening a file from a superblock snapshot. *)

val truncate : t -> used:int -> unit
(** Shrink the device to [used] pages (dropping any free-list entries
    beyond it); recovery uses this to discard pages allocated by an
    uncommitted transaction. *)

val read : t -> int -> bytes
(** Read a page into a fresh buffer.  Counts one read.  On the file
    backend the integrity trailer is verified first: raises
    {!Corrupt_page} on a torn or stale page (all-zero never-written
    pages pass). *)

val read_into : t -> int -> bytes -> unit
(** Read a page into a caller-supplied page-sized buffer. Counts one
    read; verifies like {!read}. *)

val read_raw : t -> int -> bytes
(** Read a page without trailer verification or fault injection — for
    scrub/salvage tools that classify damage instead of tripping over
    it.  Counts one read. *)

val read_shared : ?gen:int -> t -> int -> bytes
(** Domain-safe read-only page fetch for the query serving layer.  On
    the in-memory backend, returns a committed page image without
    copying (writers install fresh buffers rather than mutating in
    place, so a held buffer stays internally consistent); callers must
    treat it as immutable.  On the file backend, reads under an internal
    per-pager lock into a fresh buffer and verifies the trailer
    ({!Corrupt_page} on damage).  Bypasses fault injection and is not
    counted in {!stats} — the batched executor accounts for serving
    reads itself.

    [~gen] requests the page image as of commit generation [gen]
    (see {!set_retain_gen}): if the page has been overwritten by a
    later transaction, the retained pre-image whose validity interval
    covers [gen] is returned instead of the live page.  [gen <= 0]
    (the default) reads the live page. *)

val version_probe : t -> int -> gen:int -> bytes option
(** The retained pre-image of a page serving generation [gen], if the
    page was overwritten by a transaction committing after [gen];
    [None] when the live page is current for [gen] (or [gen <= 0]).
    Does not read the live page.  The mmap backend's snapshot protocol
    brackets each mapped-page scan with this probe: because retention
    precedes the physical overwrite, a post-scan miss proves the scan
    saw the committed image for [gen].  While the pager retains no
    version at all, the miss takes no lock and allocates nothing. *)

(** {1 MVCC: generation snapshots}

    Copy-on-write version retention for snapshot-isolated readers.
    While [retain_gen >= 0] (set by {!Superblock.begin_txn}), the first
    overwrite of each committed page also retains its pre-image in an
    in-memory version store, tagged with the generation the transaction
    will commit at: that image was the committed content for every
    generation strictly below the tag.  Pages freed by a commit are
    parked per-generation ({!park_frees}) and only promoted to the
    reusable free list once no reader pins an older generation
    ({!reclaim}).  Readers dropping the last pin of a generation call
    {!collect} to drop superseded versions; free-list promotion stays
    on the writing domain. *)

val set_retain_gen : t -> int -> unit
(** Set the generation tag for subsequently retained pre-images;
    [-1] turns retention off. *)

val park_frees : t -> gen:int -> unit
(** Move pending deferred frees to the generation-parked list under
    [gen] (the generation of the commit that freed them).  Parked pages
    remain unallocatable until {!reclaim} promotes them. *)

val collect : t -> upto:int -> unit
(** Drop retained versions with tag [<= upto] (no snapshot at or above
    the floor can need them).  Safe on a closed pager and from reader
    domains: touches only the version store. *)

val reclaim : t -> upto:int -> unit
(** {!collect} plus promotion of parked free groups with generation
    [<= upto] onto the reusable free list.  Must be called from the
    writing domain (the free list is its unshared state). *)

type mvcc_stats = { live_versions : int; parked_pages : int }

val mvcc_stats : t -> mvcc_stats
(** Size of the version store and the parked-free population — both
    must return to zero once every pin is dropped (bounded-growth
    assertions in the MVCC tests). *)

val write : t -> int -> bytes -> unit
(** Write a full page.  Counts one write.  Stamps the integrity trailer
    into [buf] (mutating its last [Page.trailer_size] bytes) before the
    page is persisted.  If a pre-image journal is active and this is the
    first overwrite of a committed page, the old image is journalled
    first. *)

(** {1 Pre-image journal}

    Transaction support used by [Superblock]: between {!begin_journal}
    and {!end_journal}, the first in-place overwrite of each committed
    page snapshots its prior contents to a freshly allocated page,
    recorded in a chained, checksummed directory.  After a crash,
    {!recover_journal} walks the directory and restores every pre-image,
    returning the device to the pre-transaction state. *)

val begin_journal : t -> exempt:int list -> int
(** Start journalling.  [exempt] pages (the superblock pair) are never
    journalled.  Returns the directory head page id, to be persisted in
    the superblock before any data page is overwritten.  Raises
    [Invalid_argument] if a journal is already active or deferred frees
    are pending. *)

val journal_head : t -> int option

val txn_modified_pages : t -> int list
(** While a journal is active: the ids this transaction will have
    modified if it commits — committed pages it overwrote plus pages it
    allocated, minus journal bookkeeping, exempt pages, and pages freed
    again before commit — in increasing order.  The shadow-copy layer
    snapshots exactly these post-images just before commit, giving the
    online scrub a repair source whose content equals committed state.
    [[]] when no journal is active. *)

val end_journal : t -> int list
(** Stop journalling and return every journal-owned page (directory
    chain + copies) so the committer can free them. *)

val recover_journal : t -> head:int -> int
(** Restore all journalled pre-images reachable from directory page
    [head]; returns the number of pages restored.  Idempotent — a crash
    during recovery just reruns it.  Raises {!Corrupt_page} if the
    directory chain itself is damaged (then only [`fsck --rebuild`]
    salvage remains). *)

val stats : t -> stats
(** The live counters (mutable; prefer {!snapshot} for accounting). *)

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter delta between two snapshots. *)

val total_io : snapshot -> int
(** [s_reads + s_writes]. *)

val reset_stats : t -> unit
val close : t -> unit

val is_closed : t -> bool
(** Whether {!close} has run (closing a faulty wrapper closes its base).
    Lets owners of shared pagers make their own close paths idempotent. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** ["reads=R writes=W allocs=A io=R+W"] — every field labelled, so the
    CLI and bench output stay greppable. *)
