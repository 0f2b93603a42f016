(** Unified invariant audit for every tree in the repository.

    One module owns the full invariant catalogue the paper's guarantees
    rest on:

    - MBR containment {e and} tightness (a parent records exactly the
      bounding box of each child's subtree);
    - uniform leaf depth (all leaves on the level the height claims);
    - fill-factor bounds (opt-in minimums; a page's count past its
      capacity is a decode error, a pseudo-leaf's an overflow);
    - page order: every node's entries in ascending [xmin]
      ({!Node.page_compare}), which the descent's cut-off relies on;
    - entry-count consistency between tree metadata and the leaves;
    - no page leaks: every allocated page of the pager is reachable
      exactly once from the root (or on the free list), no reachable
      page is free, and no page is shared between two parents;
    - for in-memory pseudo-PR-trees (via {!check_pseudo}): node degree
      at most the paper's bound (6 in the plane, [2d+2] in d
      dimensions) and priority-leaf extremeness — every entry of a
      priority leaf at least as extreme in its direction as everything
      the later siblings hold.

    [check] is the one walk that checks a paged tree, of any dimension:
    it reads each node page once through the buffer pool, straight from
    {!Node}'s columns for the tree's [d] ([Prt_ndtree.Rtree_nd.audit]
    passes the d-D tree's).  [Prt_prtree.Pseudo.audit] /
    [Prt_ndtree.Audit_nd.check_pseudo] adapt the in-memory pseudo-trees
    onto {!check_pseudo}.  Corrupt pages, the pager's refusals
    included, are reported as violations rather than exceptions; a
    device-level [Pager.Io_error] (faulty pager with retries exhausted)
    still propagates — failures surface, they are never read as a clean
    audit. *)

(** What went wrong.  {!label} gives each case a stable kebab-case name
    the tests key on. *)
type what =
  | Decode_error of string  (** The page does not parse as a node. *)
  | Mbr_not_contained  (** A child's exact box escapes its recorded MBR. *)
  | Mbr_not_tight  (** Recorded MBR strictly larger than the child's box. *)
  | Leaf_depth of { depth : int; height : int }
  | Internal_depth of { depth : int; height : int }
  | Node_overflow of { count : int; capacity : int }
  | Node_underfill of { count : int; minimum : int }
  | Unsorted_node  (** The node's entries are not in {!Node.page_compare} order. *)
  | Empty_node
  | Count_mismatch of { expected : int; actual : int }
  | Page_leaked  (** Allocated, not free, and unreachable from the root. *)
  | Page_shared  (** Reachable via two different parents. *)
  | Freed_page_reachable
  | Degree_exceeded of { degree : int; limit : int }
  | Priority_not_extreme of { dir : int }
  | Box_mismatch  (** Pseudo-node box is not the union of its members. *)

type violation = { where : string; what : what }

val label : what -> string
val pp_violation : Format.formatter -> violation -> unit

type report = {
  violations : violation list;
  nodes : int;  (** node pages that decode *)
  leaves : int;
  entries : int;  (** entries in the leaves *)
  min_leaf_fill : int;  (** fewest entries in a leaf, the root included; 0 without leaves *)
  min_internal_fanout : int;  (** fewest entries in an internal node; 0 without one *)
  utilization : float;  (** entries / (leaves * capacity) *)
  pages : int list;
      (** Every page the walk reached, ascending, and with [check_leaks]
          the [reachable] pages too. *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val check :
  ?min_leaf_fill:int ->
  ?min_fanout:int ->
  ?check_leaks:bool ->
  ?reachable:int list ->
  ?dims:int ->
  Rtree.t ->
  report
(** Audit a paged R-tree (any variant: PR, Hilbert, H4, STR, TGS, kd-B
    on points, dynamically built) whose pages hold [dims]-dimensional
    entries (default 2) in {!Node}'s layout.

    A page the pager refuses ([Pager.Corrupt_page]), a bad kind byte, a
    count past the capacity and an inverted or NaN box are each a
    [decode-error] on that page.  [min_leaf_fill] / [min_fanout]
    (default 1) set the fill-factor floors for non-root leaves and
    internal nodes.  [check_leaks] (default false) additionally sweeps
    the whole pager for allocated pages that are neither reachable from
    the root, on the free list, nor listed in [reachable] (extra pages
    the caller knows about: metadata pages, record files sharing the
    device).

    Raises nothing on corrupt pages (they become violations); a
    [Pager.Io_error] from a faulty device propagates. *)

exception Invalid of violation

val validate : ?dims:int -> Rtree.t -> report
(** {!check} with the default floors and no leak sweep, raising
    {!Invalid} with the first violation. *)

(** {2 Pseudo-tree support}

    Adapters (which own the geometry) flatten their tree into neutral
    descriptors; the catalogue of checks stays here. *)

type pseudo_kind =
  | Pseudo_leaf of { size : int; priority : int option; extreme : bool }
      (** [extreme] is the adapter's verdict on priority-leaf
          extremeness ([true] for ordinary kd-leaves). *)
  | Pseudo_node of { degree : int }

type pseudo_desc = { pd_where : string; pd_kind : pseudo_kind; pd_box_ok : bool }

val check_pseudo :
  degree_limit:int -> leaf_capacity:int -> pseudo_desc list -> violation list
(** Turn flattened pseudo-tree descriptors into violations: degree
    bound, leaf occupancy in [1, leaf_capacity], box consistency,
    priority-leaf extremeness. *)
