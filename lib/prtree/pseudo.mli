(** The two-dimensional pseudo-PR-tree (Section 2.1 of the paper).

    A 4-D kd-tree over rectangles-as-points, where each internal node
    carries up to four {e priority leaves} holding the [b] rectangles of
    its subtree most extreme in each direction (minimal xmin, minimal
    ymin, maximal xmax, maximal ymax), each drawn from what the previous
    priority leaves left behind. Window queries visit
    [O(sqrt(N/b) + T/b)] nodes (Lemma 2). The real {!Prtree} is built
    from the {e leaves} of pseudo-PR-trees, one stage per level.

    One construction kernel serves both forms: quickselect over four
    unboxed coordinate columns and an int permutation, specialised by
    key dimension and direction. It hands out each leaf with its
    entries in page order ({!Prt_rtree.Node.page_compare}) and its
    bounding box. {!build_leaves} returns its leaves as they are;
    {!build} wraps them in the tree. *)

type t =
  | Leaf of {
      mbr : Prt_geom.Rect.t;
      entries : Prt_rtree.Entry.t array;
      priority : int option;
          (** direction (0..3 = xmin, ymin, xmax, ymax) this leaf is
              extreme in, or [None] for an ordinary kd-leaf *)
    }
  | Node of { mbr : Prt_geom.Rect.t; children : t list }

val build : ?b:int -> ?priority_size:int -> Prt_rtree.Entry.t array -> t
(** [build ~b entries] constructs the pseudo-PR-tree with leaf capacity
    [b] (default 113, the 4 KB-page fanout). Expected O(N log N) via
    quickselect over unboxed coordinate columns and an int permutation;
    the input array is not modified. Every leaf's entries are
    determined by {!Prt_rtree.Entry.compare_dim}'s total order and the
    quickselect's fixed pivot rule; inside a leaf they are in page
    order. Raises [Invalid_argument] on empty input or [b < 1].

    [priority_size] (default [b]) sets how many extreme rectangles each
    priority leaf holds: [b] is the paper's choice, [1] the structure of
    its reference [2], and [0] disables priority leaves entirely (a
    plain 4-D kd-tree) — exposed for the ablation benchmarks. Raises
    [Invalid_argument] outside [0, b]. *)

val build_leaves :
  ?b:int ->
  ?priority_size:int ->
  Prt_rtree.Entry.t array ->
  (Prt_geom.Rect.t * Prt_rtree.Entry.t array) list
(** [build_leaves ~b entries] is [leaves (build ~b entries)] — the same
    leaves, entries in page order, in the same order — each with its
    bounding box, straight from the construction, without the tree:
    what {!Prtree.load} and {!Ext_build} keep of each pseudo-PR-tree.
    The box is the one [Rect.union_map] gives over the leaf. Same
    arguments and exceptions as {!build}. *)

val mbr : t -> Prt_geom.Rect.t

val leaves : t -> Prt_rtree.Entry.t array list
(** All leaf entry-sets (priority and kd leaves), in construction
    order — the node sets of one PR-tree level. *)

val fold_leaves :
  t ->
  init:'acc ->
  f:('acc -> entries:Prt_rtree.Entry.t array -> priority:int option -> 'acc) ->
  'acc

val size : t -> int
(** Total entries stored. *)

type query_stats = {
  mutable inner_visited : int;
  mutable leaves_visited : int;
  mutable matched : int;
}

val query : t -> Prt_geom.Rect.t -> f:(Prt_rtree.Entry.t -> unit) -> query_stats
(** Window query, counting visited kd-nodes and leaves (for empirical
    Lemma 2 checks). *)

val audit : ?b:int -> t -> Prt_rtree.Audit.violation list
(** The structural invariants, through the unified audit's
    [check_pseudo]: degree at most six, leaf occupancy in [1, b], exact
    boxes, and {e priority-leaf extremeness}
    (every entry of a priority leaf at least as extreme in its direction
    as everything held by the siblings after it).  Returns the violation
    list instead of raising; empty means the invariants hold. *)

val extreme_cmp : int -> Prt_rtree.Entry.t -> Prt_rtree.Entry.t -> int
(** Total order putting the most extreme entry of the given priority
    direction first. *)
