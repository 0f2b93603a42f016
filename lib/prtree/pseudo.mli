(** The pseudo-PR-tree (Sections 2.1 and 2.3 of the paper), in every
    dimension.

    In the plane it is a 4-D kd-tree over rectangles-as-points, where
    each internal node carries up to four {e priority leaves} holding the
    [b] rectangles of its subtree most extreme in each direction
    (minimal xmin, minimal ymin, maximal xmax, maximal ymax), each drawn
    from what the previous priority leaves left behind.  In d
    dimensions it is a 2d-dimensional kd-tree with 2d priority leaves
    per node.  Window queries visit [O((N/b)^(1-1/d) + T/b)] nodes
    (Lemma 2 in the plane).  The real {!Prtree} is built from the
    {e leaves} of pseudo-PR-trees, one stage per level.

    One construction kernel serves every dimension and every caller:
    Floyd–Rivest selection over {!columns} — 2d unboxed coordinate
    columns (lows, then highs) and the ids, permuted in lockstep —
    specialised by key column and direction.  It hands out each leaf as
    a range of positions; {!page_leaf} puts a leaf in page order
    ({!Prt_rtree.Node.page_compare}) and reads its bounding box.
    {!leaf_ends} is the kernel on columns, for {!Prtree.load_columns};
    {!build_leaves} and {!build} run it over an entry array and hand
    the leaves back as entries.  The kernel and the tree are written
    once over a {!geometry}, the box and entry types of a dimension;
    {!build}, {!build_leaves} and {!audit} are the planar instances. *)

type ('box, 'entry) tree =
  | Leaf of {
      mbr : 'box;
      entries : 'entry array;
      priority : int option;
          (** direction (0..2d-1: the lows, then the highs; in the
              plane xmin, ymin, xmax, ymax) this leaf is extreme in, or
              [None] for an ordinary kd-leaf *)
    }
  | Node of { mbr : 'box; children : ('box, 'entry) tree list }

type t = (Prt_geom.Rect.t, Prt_rtree.Entry.t) tree
(** The planar pseudo-PR-tree. *)

(** What the kernel and the tree functions need of a dimension's boxes
    and entries. *)
type ('box, 'entry) geometry = {
  dims : int;  (** d: the kernel works on 2d columns *)
  store : 'entry -> Float.Array.t array -> int -> unit;
      (** [store e cols i] writes the 2d kd-coordinates of [e]'s box
          (lows, then highs) into slot [i] of [cols.(0)] to
          [cols.(2d - 1)], without boxing a float *)
  id : 'entry -> int;
  box : 'entry -> 'box;
  make_box : Float.Array.t -> 'box;
      (** the box with the given 2d bounds (lows, then highs), none NaN *)
  union : 'box -> 'box -> 'box;  (** [Float.min] of the lows, [Float.max] of the highs *)
  equal : 'box -> 'box -> bool;
  compare_dim : int -> 'entry -> 'entry -> int;
      (** total order on kd-coordinate [k], ties broken by every
          coordinate in kd order, then the id *)
}

val planar : (Prt_geom.Rect.t, Prt_rtree.Entry.t) geometry
(** Rectangles and {!Prt_rtree.Entry}: the columns xmin, ymin, xmax,
    ymax. *)

(** {1 The kernel on columns} *)

type columns = {
  cols : Float.Array.t array;
      (** the 2d coordinate columns: lo{_0} .. lo{_d-1}, then hi{_0} ..
          hi{_d-1} (xmin, ymin, xmax, ymax in the plane) *)
  ids : int array;
  origin : int array;
      (** each entry's index in the caller's entry array, or [[||]] when
          the caller holds no entries *)
  len : int;  (** the entries are slots [0 .. len - 1] of every column *)
}
(** A set of entries held as columns.  The kernel permutes every
    column in lockstep. *)

val columns : ('box, 'entry) geometry -> 'entry array -> columns
(** The entries copied into fresh columns, with no origins. *)

val leaf_ends : b:int -> ?priority_size:int -> columns -> int array
(** Runs the construction on the columns, permuting them, and returns
    where each leaf ends, in construction order: leaf [i] is positions
    [ends.(i - 1)] (0 for the first) to [ends.(i) - 1].  Each leaf is
    then final: the same set of entries as in {!build} over the same
    entries, whatever their order in the columns.  Same arguments and
    exceptions as {!build}. *)

val page_leaf :
  columns ->
  lo:int ->
  hi:int ->
  order:int array ->
  scratch:int array ->
  bounds:Float.Array.t ->
  bool
(** [page_leaf c ~lo ~hi ~order ~scratch ~bounds] puts positions [lo ..
    hi - 1] into [order.(0 .. hi - lo - 1)] in page order (through
    {!Prt_rtree.Node.sort_columns}, with [scratch] as long as [order])
    and the leaf's
    bounding box into [bounds] (the 2d bounds, lows then highs): the
    bits [union] gives over the leaf in page order.  False if a low
    exceeds its high or is NaN: the box then cannot go through
    [make_box]. *)

(** {1 Over entry arrays} *)

val build : ?b:int -> ?priority_size:int -> Prt_rtree.Entry.t array -> t
(** [build ~b entries] constructs the pseudo-PR-tree with leaf capacity
    [b] (default 113, the 4 KB-page fanout). Expected O(N log N): the
    entries are copied into {!columns} with their origins, the kernel
    runs on them, and each leaf's entries come back in page order; the
    input array is not modified. Every leaf's entries are determined by
    {!Prt_rtree.Entry.compare_dim}'s total order alone. Raises
    [Invalid_argument] on empty input or [b < 1].

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
    what {!Ext_build}'s in-memory cells keep of each pseudo-PR-tree.
    The box is the one [Rect.union_map] gives over the leaf. Same
    arguments and exceptions as {!build}. *)

val build_with :
  ('box, 'entry) geometry -> ?b:int -> ?priority_size:int -> 'entry array -> ('box, 'entry) tree
(** {!build} in the geometry's dimension: the same kernel on its 2d
    columns, every leaf the one [compare_dim] closures give.  The
    entries' boxes must all be of the geometry's dimension. *)

val build_leaves_with :
  ('box, 'entry) geometry ->
  ?b:int ->
  ?priority_size:int ->
  'entry array ->
  ('box * 'entry array) list
(** {!build_leaves} in the geometry's dimension; each box is the one
    [union] gives over the leaf, bit for bit. *)

val mbr : ('box, 'entry) tree -> 'box

val leaves : ('box, 'entry) tree -> 'entry array list
(** All leaf entry-sets (priority and kd leaves), in construction
    order — the node sets of one PR-tree level. *)

val fold_leaves :
  ('box, 'entry) tree ->
  init:'acc ->
  f:('acc -> entries:'entry array -> priority:int option -> 'acc) ->
  'acc

val size : ('box, 'entry) tree -> int
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
    list instead of raising; empty means the invariants hold.  Paths
    start at ["pseudo"]. *)

val audit_with :
  ('box, 'entry) geometry ->
  ?b:int ->
  root:string ->
  ('box, 'entry) tree ->
  Prt_rtree.Audit.violation list
(** {!audit} in the geometry's dimension: degree at most [2d + 2] and
    extremeness in each of the [2d] directions; paths start at
    [root]. *)

val extreme_cmp : int -> Prt_rtree.Entry.t -> Prt_rtree.Entry.t -> int
(** Total order putting the most extreme entry of the given priority
    direction first. *)
