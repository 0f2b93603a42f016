(** Unified invariant audit for every tree in the repository.

    One module owns the full invariant catalogue the paper's guarantees
    rest on:

    - MBR containment {e and} tightness (a parent records exactly the
      bounding box of each child's subtree);
    - uniform leaf depth (all leaves on the level the height claims);
    - fill-factor bounds (opt-in minimums; overflow always checked);
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

    [check] walks the paged 2-D tree; the d-dimensional mirror lives in
    [Prt_ndtree.Audit_nd], and [Prt_prtree.Pseudo.audit] /
    [Prt_ndtree.Audit_nd.check_pseudo] adapt the in-memory pseudo-trees
    onto {!check_pseudo}.  Corrupt pages are reported as violations
    rather than exceptions; a device-level [Pager.Io_error] (faulty
    pager with retries exhausted) still propagates — failures surface,
    they are never read as a clean audit. *)

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
  nodes : int;
  leaves : int;
  entries : int;
  pages_visited : int;
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val check :
  ?min_leaf_fill:int ->
  ?min_fanout:int ->
  ?check_leaks:bool ->
  ?reachable:int list ->
  Rtree.t ->
  report
(** Audit a paged 2-D R-tree (any variant: PR, Hilbert, H4, STR, TGS,
    kd-B on points, dynamically built).

    [min_leaf_fill] / [min_fanout] (default 1) set the fill-factor
    floors for non-root leaves and internal nodes.  [check_leaks]
    (default false) additionally sweeps the whole pager for allocated
    pages that are neither reachable from the root, on the free list,
    nor listed in [reachable] (extra pages the caller knows about:
    metadata pages, record files sharing the device).

    Raises nothing on corrupt pages (they become violations); a
    [Pager.Io_error] from a faulty device propagates. *)

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
