(** The paged R-tree: window queries and traversal.

    Every bulk loader in the repository (packed Hilbert, 4-D Hilbert,
    STR, TGS, PR-tree) produces this structure; the dynamic update
    algorithms ({!Dynamic}) mutate it. Queries report how many nodes they
    visit per level — with all internal nodes cached (the paper's query
    setup), [leaf_visited] is exactly the paper's query I/O count. *)

type t

type query_stats = {
  mutable internal_visited : int;
  mutable leaf_visited : int;
  mutable matched : int;
  mutable skipped_subtrees : int;  (** subtrees routed around (quarantine/damage) *)
  mutable skipped_pages : int list;  (** distinct page ids behind the holes *)
  mutable timed_out : bool;  (** the deadline fired mid-descent *)
}

val fresh_stats : unit -> query_stats
val nodes_visited : query_stats -> int

val merge_stats : query_stats -> query_stats -> unit
(** [merge_stats dst src] accumulates [src] into [dst] (visits, matches,
    skips; [timed_out] ORs) — how a multi-component fan-out combines
    per-component descents into one record whose {!completeness} is the
    honest label for the merged answer. *)

val record_query_stats : ?latency_us:int -> query_stats -> unit
(** Tick the shared [query.*]/[resilience.*] metrics for one finished
    descent on the calling domain's stripe — used by {!query} and by
    every {!Qexec} worker, so multicore and sequential runs account
    identically.  No-op while {!Prt_obs.Metrics.collecting} is off. *)

(** Completeness of a query's result — partiality is never silent. *)
type completeness =
  | Complete
  | Partial of { skipped_pages : int list; skipped_subtrees : int }
      (** Some subtrees were skipped (quarantined or freshly damaged
          pages); the reported entries are a subset of the true answer. *)
  | Timed_out of { skipped_pages : int list; skipped_subtrees : int }
      (** The deadline fired mid-descent; entries matched before the
          cutoff were delivered.  Takes precedence over [Partial]. *)

val completeness : query_stats -> completeness
(** [skipped_pages] come out sorted and de-duplicated. *)

val complete : query_stats -> bool
val pp_completeness : Format.formatter -> completeness -> unit

val create_empty : Prt_storage.Buffer_pool.t -> t
(** A tree with a single empty leaf. *)

val of_root :
  pool:Prt_storage.Buffer_pool.t -> root:int -> height:int -> count:int -> t
(** Wrap an already-written tree (used by the bulk loaders). [height] is
    1 when the root is a leaf. *)

val set_mmap : t -> Prt_storage.Mmap_pager.t option -> unit
(** Attach (or detach) the mmap read backend.  While attached and
    usable (see {!page_source}), queries scan node pages directly in
    the mapping — no syscall, no lock, no copy, no decode — and serve
    single nodes through pread when the mapping cannot be trusted
    (torn page, pinned generation overwritten).  Owned by
    [Index_file]; the writer must {!Prt_storage.Mmap_pager.refresh} it
    after every commit. *)

val pool : t -> Prt_storage.Buffer_pool.t
val pager : t -> Prt_storage.Pager.t
val root : t -> int
val height : t -> int
val count : t -> int
val page_size : t -> int

val capacity : t -> int
(** Node capacity [B] implied by the page size (113 at 4 KB). *)

val read_node : t -> int -> Node.t
(** Decode a page through the buffer pool.  Raises
    [Prt_storage.Pager.Corrupt_page "page N does not decode: <reason>"]
    when the page reads but {!Node.decode} refuses it, as the pager does
    for a torn page. *)

val write_node : t -> int -> Node.t -> unit
val alloc_node : t -> Node.t -> int
val free_node : t -> int -> unit

val set_root : t -> root:int -> height:int -> unit
(** Repoint the tree at a new root (used by the update algorithms). *)

val set_count : t -> int -> unit

type snapshot_view = { sv_gen : int; sv_root : int; sv_height : int }
(** A pinned generation's tree, produced by [Index_file.snapshot_view]:
    the committed generation to read pages at plus the root and height
    of {e that} generation's tree (the live handle may already point at
    a newer commit).  Passed to {!query} as [~snapshot]. *)

val query :
  ?quarantine:Prt_storage.Quarantine.t ->
  ?deadline:Prt_util.Deadline.t ->
  ?snapshot:snapshot_view ->
  t ->
  Prt_geom.Rect.t ->
  f:(Entry.t -> unit) ->
  query_stats
(** Window query: [f] is called on every stored entry whose rectangle
    intersects the window (closed-boundary semantics).

    Without the optional arguments the query is fail-stop: a
    {!Prt_storage.Pager.Corrupt_page} propagates.  With a [quarantine]
    it degrades gracefully instead — quarantined page ids are skipped
    without touching the device, a fresh [Corrupt_page]/[Io_error] on a
    page read quarantines that id and skips its subtree, and the result
    is tagged through {!completeness} (reported entries are then a
    subset of the true answer, never a superset).  With a [deadline],
    expiry is checked once per node visit and unwinds into a
    [Timed_out] tag, keeping everything matched before the cutoff.
    Never raises to the caller for device damage when a quarantine is
    supplied.

    With [~snapshot] the descent reads the committed page images of the
    pinned generation (the mapping under the version-store protocol, or
    [Pager.read_shared ~gen]), bypassing the buffer pool entirely: safe
    to run from any domain while a writer mutates the live tree, and
    the result is exactly the pinned commit's answer.  The snapshot
    path composes with [quarantine]/[deadline].

    The descent completes before [f] sees the first entry (results are
    collected in a scratch buffer of this domain, one per nesting
    level), so [f] may issue further queries.  Every path records the shared metrics while
    {!Prt_obs.Metrics.collecting} is on; the registry is striped per
    domain. *)

val query_unrecorded :
  ?quarantine:Prt_storage.Quarantine.t ->
  ?deadline:Prt_util.Deadline.t ->
  ?snapshot:snapshot_view ->
  t ->
  Prt_geom.Rect.t ->
  f:(Entry.t -> unit) ->
  query_stats
(** Exactly {!query}, but never ticks the shared metrics — for callers
    that account for their descents themselves through
    {!record_query_stats}. *)

(** {1 Allocation-free queries}

    A reusable query buffer: results append into it and the descent
    statistics are written into a record it owns, so a query performs
    no per-call allocation of its own.  Hits are stored unboxed and
    built into entries by {!hits_get}.  On the mmap backend's live path
    the whole descent is allocation-free — after one warm-up query has
    sized the stack and the hit buffer, a window query allocates zero
    minor words whatever it visits and matches (proved by
    [Gc.minor_words] checks in [@mmap-smoke]). *)

type hits

val hits_make : unit -> hits
val hits_length : hits -> int

val hits_get : hits -> int -> Entry.t
(** [hits_get h i] is the [i]-th result of the last query, in the same
    order the callback API delivers them, built fresh on each call.
    Raises [Invalid_argument] out of bounds. *)

val hits_id : hits -> int -> int
(** [hits_id h i] is the id of the [i]-th result, without building the
    entry.  Raises [Invalid_argument] out of bounds. *)

val hits_coords : hits -> Float.Array.t
(** The buffer's coordinate column: result [i]'s [xmin], [ymin],
    [xmax] and [ymax] sit at [4i] to [4i + 3], for [i] below
    {!hits_length}; the array may be longer.  (In a buffer of
    [d]-dimensional results, {!descend_box}'s, result [i]'s [2d]
    coordinates — lo{_0} to lo{_d-1}, then hi{_0} to hi{_d-1} — sit
    at [2d i] onward.)  A later query into the buffer may replace the
    array, so fetch it after the query. *)

val hits_clear : hits -> unit

val hits_stats : hits -> query_stats
(** The buffer's statistics record — overwritten in place by each
    {!query_into} on this buffer. *)

val query_into :
  ?quarantine:Prt_storage.Quarantine.t ->
  ?deadline:Prt_util.Deadline.t ->
  ?snapshot:snapshot_view ->
  t ->
  Prt_geom.Rect.t ->
  into:hits ->
  unit
(** Same semantics as {!query} (including quarantine, deadline and
    snapshot behaviour), with results and statistics landing in
    [into].  Records the shared metrics like {!query} does. *)

val query_into_unrecorded :
  ?quarantine:Prt_storage.Quarantine.t ->
  ?deadline:Prt_util.Deadline.t ->
  ?snapshot:snapshot_view ->
  t ->
  Prt_geom.Rect.t ->
  into:hits ->
  unit
(** Exactly {!query_into}, but never ticks the shared metrics, as
    {!query_unrecorded}: how an LSM merge reads a component's entries
    into columns. *)

val query_list :
  ?quarantine:Prt_storage.Quarantine.t ->
  ?deadline:Prt_util.Deadline.t ->
  ?snapshot:snapshot_view ->
  t ->
  Prt_geom.Rect.t ->
  Entry.t list * query_stats

val query_count :
  ?quarantine:Prt_storage.Quarantine.t ->
  ?deadline:Prt_util.Deadline.t ->
  ?snapshot:snapshot_view ->
  t ->
  Prt_geom.Rect.t ->
  query_stats

(** {1 The descent engine}

    Every query above, {!Query}'s forms, {!Qexec}'s workers and
    {!query_profile} run one explicit-stack preorder descent, given a
    page {!source} and a {!policy}; {!descend_into} is the engine
    itself, {!descend_iter} its callback form.  Children are pushed in
    reverse entry order, so pages pop in the recursive preorder and
    visit counts and result order are the same on every source.
    Within a leaf, results come in page order ({!Node.page_compare}),
    whatever order the loader built the leaf in: each node's scan
    binary-searches where it can stop, the first entry whose [xmin]
    exceeds the query's bound.  Under a snapshot, leaf vs internal is
    decided by depth against the pinned height; on the live tree by the
    page's kind byte. *)

type form =
  | Window  (** descend and report on intersection *)
  | Enclosed  (** descend on intersection, report entries inside the window *)
  | Covering  (** descend and report where the entry covers the window *)

type source =
  | Pool  (** the live tree through {!Prt_storage.Buffer_pool.read} *)
  | Shared of bytes Prt_storage.Shard_cache.t option
      (** the snapshot's generation through [Pager.read_shared ~gen];
          internal pages through the cache of page images when given *)
  | Mapped of Prt_storage.Mmap_pager.t
      (** the shared file mapping, scanned in place.  A page outside
          the mapped window, failing its CRC gate, or (at a pinned
          generation) overwritten since — probed before and after the
          scan, rolling the node back on a late hit — is served
          through [Pager.read_shared ~gen] instead and counted as one
          fallback. *)

type policy = {
  form : form;
  quarantine : Prt_storage.Quarantine.t option;
      (** skip quarantined pages; quarantine and skip pages whose read
          fails.  Without one, [Corrupt_page] propagates. *)
  deadline : Prt_util.Deadline.t;  (** checked once per node *)
  levels : int array option;  (** per-level visit counter, index 0 = root *)
  first_hit : bool;  (** stop once an entry has been reported *)
}

val policy : form -> policy
(** [form] with no quarantine, no deadline, no level counter, run to
    completion. *)

val page_source : t -> snapshot_view option -> source
(** The source a query would use: the mapping when it is attached and
    either a generation is pinned or the buffer pool is clean; else a
    pinned generation through [read_shared] ([Shared None]); else
    [Pool]. *)

val descend_into :
  t -> source -> policy -> snapshot_view option -> Prt_geom.Rect.t -> into:hits -> unit
(** Run the descent from the snapshot's root (or the live root), with
    the results and statistics landing in [into] as in {!query_into}.
    Records no metrics. *)

val descend_iter :
  t ->
  source ->
  policy ->
  snapshot_view option ->
  Prt_geom.Rect.t ->
  f:(Entry.t -> unit) ->
  query_stats
(** Run the descent from the snapshot's root (or the live root) into a
    scratch buffer of this domain, then call [f] on each result in
    delivery order; [f] may query again.  Records no metrics. *)

val descend_box :
  t -> Prt_geom.Hyperrect.t -> f:(hits -> int -> unit) -> query_stats
(** The window query over a tree whose pages hold [d]-dimensional
    entries in {!Node}'s layout for [d] ([Prt_ndtree.Rtree_nd]'s), [d]
    being the window's dimension: the engine on the live tree through
    the pool, with no quarantine or deadline, into a scratch buffer of
    this domain for [d].  Then [f h i] runs on each result [i] in
    delivery order, reading it through {!hits_coords} and {!hits_id};
    [f] may query again.  At [d = 2] the descent is exactly
    {!descend_iter}'s.  Records no metrics. *)

(** Per-query I/O profile, collected by {!query_profile}: the node count
    per level (root = index 0), the classic visit/match counts, the
    backend that served the pages, the mapping, pager and buffer-pool
    activity attributable to the query, and its wall-clock time. *)
type profile = {
  pf_levels : int array;  (** nodes visited on each level; index 0 = root *)
  pf_internal : int;
  pf_leaves : int;
  pf_matched : int;  (** the paper's output size [T] *)
  pf_backend : string;  (** ["mmap"] or ["pool"]: the {!page_source} used *)
  pf_mapped : int;  (** pages scanned in the mapping during the query *)
  pf_fallbacks : int;  (** mapped visits served through pread instead *)
  pf_reads : int;  (** pager reads during the query *)
  pf_writes : int;
  pf_hits : int;  (** buffer-pool hits during the query *)
  pf_misses : int;
  pf_seconds : float;
}

val query_profile : t -> Prt_geom.Rect.t -> f:(Entry.t -> unit) -> profile
(** Same descent, same page source and same results as {!query}, with
    the engine's per-level counter on; returns a full {!profile}.
    Emits an ["rtree.query"] span when tracing is installed. *)

val pp_profile : Format.formatter -> profile -> unit

val iter : t -> f:(Entry.t -> unit) -> unit
(** Visit every stored entry. *)

val iter_nodes : t -> f:(depth:int -> id:int -> Node.t -> unit) -> unit
(** Visit every node, with its depth (root = 1) and page id. *)

val mbr : t -> Prt_geom.Rect.t option
(** Bounding box of the whole dataset ([None] when empty). *)

val dump : t -> Format.formatter -> unit
(** Debug rendering: one line per node (page id, fanout, MBR), indented
    by depth. Intended for small trees. *)
