(** Shadow superblock pair: atomic commit for paged index files.

    Pages 0 and 1 of a formatted device hold two checksummed copies of
    the superblock (commit counter, caller metadata blob, free-list
    snapshot, journal pointer); the copy with the highest valid commit
    counter is live, and each commit writes the other slot.  Combined
    with the pager's pre-image journal and deferred frees, this gives
    transactions on index files the guarantee that a crash at {e any}
    page-write boundary yields either the pre-operation or the
    post-operation tree on reopen — never a hybrid.

    Protocol: {!begin_txn} starts the pager journal and flips the
    superblock to point at it (still carrying the {e old} metadata);
    the caller mutates the tree and flushes its buffer pool; then
    {!commit_txn} flips the superblock to the new metadata with the
    journal cleared.  {!open_} picks the newest valid slot, replays the
    journal if the last transaction never committed, truncates
    uncommitted tail pages, and restores the free list. *)

val pages : int
(** Number of reserved device pages (2: slots at page ids 0 and 1). *)

val meta_capacity : int
(** Maximum metadata blob size in bytes (64). *)

val min_page_size : int
(** Smallest page size a superblock fits in. *)

type t

type recovery = {
  rec_journal_pages : int;  (** pre-images restored from the journal *)
  rec_truncated_pages : int;  (** uncommitted tail pages dropped *)
  rec_slot_repaired : bool;  (** a damaged slot was rewritten from the live one *)
}

val no_recovery : recovery

val format : Pager.t -> meta:bytes -> t
(** Initialise a fresh device: allocates pages 0 and 1 (the device must
    be empty), commits an empty state with the given metadata blob, and
    switches the pager to deferred frees.  Raises [Invalid_argument] if
    the device is not fresh or the blob exceeds {!meta_capacity}. *)

exception Unsupported_format of int
(** The device was written by another on-disk format: its superblock
    slots are intact but carry this format epoch, not
    {!Page.format_epoch}. *)

val unsupported_format_message : int -> string
(** ["index format 3; this build reads format 4: rebuild it from its
    dataset"] for a format-3 file: what to tell an operator. *)

val open_ : Pager.t -> t * recovery
(** Open a formatted device, running crash recovery as needed (see
    above).  Raises {!Unsupported_format} if no slot is valid and one
    is a checksummed slot of another format epoch — every page of such
    a file is refused, so salvage could rebuild nothing from it.
    Raises [Failure] if neither slot holds a valid superblock otherwise
    — only [fsck --rebuild] salvage remains in that case. *)

val meta : t -> bytes
(** The metadata blob of the last committed state (a copy). *)

val commit_count : t -> int
val in_txn : t -> bool
val pager : t -> Pager.t

val free_dropped : t -> int
(** Free pages that did not fit in the last committed snapshot and were
    therefore leaked on reopen (0 in the common case). *)

(** {1 Generation pins (snapshot isolation)}

    Every committed state has a {e generation} — its commit counter.
    A reader {!pin}s the current generation and gets a {!snap}: the
    generation number plus the metadata blob as of that commit.  While
    any snapshot of generation [g] is alive, the pager retains pre-images
    of pages overwritten by later transactions (served transparently by
    [Pager.read_shared ~gen:g]) and keeps pages freed by later commits
    parked, so a descent from the snapshot's root always sees the exact
    committed page images of generation [g] — writers never block
    readers, and vice versa. *)

type snap
(** A pinned generation.  Hold it for the duration of a query batch and
    {!release} it (idempotent) when done. *)

val generation : t -> int
(** The current committed generation.  Equals {!commit_count} except
    while a transaction is open, when [commit_count] already reflects
    the in-flight flip but [generation] still names the last committed
    state. *)

val pin : t -> snap
(** Pin the current committed generation.  Domain-safe: may race
    {!commit_txn}, in which case the snapshot is entirely the old or
    entirely the new generation, never a mix. *)

val snap_gen : snap -> int
val snap_meta : snap -> bytes
(** The metadata blob (tree root, height, count, ...) as of the pinned
    generation (a copy). *)

val release : snap -> int
(** Drop the pin (idempotent; double release is a no-op).  Returns the
    new pin floor — the oldest still-pinned generation, or the current
    generation when none remain — after dropping retained page versions
    no live snapshot can need.  Parked frees are promoted separately by
    the writing domain at its next {!begin_txn} / {!commit_txn}. *)

val release_all_pins : t -> unit
(** Forget every outstanding pin (close path): outstanding [snap]
    handles become inert and version memory below the current
    generation is dropped. *)

val pinned_floor : t -> int
(** Oldest pinned generation, or the current generation if none. *)

val pin_count : t -> int
(** Number of live pins across all generations. *)

val begin_txn : t -> unit
(** Start a transaction: begins the pager's pre-image journal and
    publishes the journal pointer with the old metadata.  Raises
    [Invalid_argument] if a transaction is already open. *)

val commit_txn : t -> meta:bytes -> unit
(** Commit: the caller must have flushed all data writes (e.g.
    [Buffer_pool.flush]) first.  Frees the journal pages, publishes the
    new metadata and free-list snapshot with a single superblock write,
    and promotes deferred frees. *)

(** {1 Inspection (fsck)} *)

type state = {
  commit : int;
  used : int;
  journal : int;
  meta : bytes;
  free_total : int;
  free : int list;
}

type slot =
  | Slot_valid of state
  | Slot_empty
  | Slot_stale of int  (** checksummed, but by another format epoch *)
  | Slot_bad of string

val inspect : Pager.t -> slot array
(** Classify both superblock slots without opening the device (raw
    reads; never raises on damage). *)
