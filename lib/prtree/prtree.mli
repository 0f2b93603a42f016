(** The Priority R-tree: worst-case-optimal R-tree bulk loading
    (Theorem 1 of the paper).

    Builds an ordinary {!Prt_rtree.Rtree.t} — queryable and updatable
    like any other — whose window queries are guaranteed
    [O(sqrt(N/B) + T/B)] I/Os. Each level is the set of leaves of a
    pseudo-PR-tree built on the previous level's bounding boxes. *)

val load :
  ?priority_size:int -> Prt_storage.Buffer_pool.t -> Prt_rtree.Entry.t array -> Prt_rtree.Rtree.t
(** In-memory staged construction (expected O(N log N) work): the
    entries copied into columns ({!Pseudo.columns}), then
    {!load_columns}.  The input array is not modified.  For the
    I/O-efficient external construction see {!Ext_build}.
    [priority_size] is the ablation knob of {!Pseudo.build}. *)

val load_columns :
  ?priority_size:int -> Prt_storage.Buffer_pool.t -> Pseudo.columns -> Prt_rtree.Rtree.t
(** {!load} over entries already held as columns (two dimensions: the
    four columns xmin, ymin, xmax, ymax), which it permutes.  Each
    stage runs the kernel ({!Pseudo.leaf_ends}) to the end in a
    [prtree.pseudo] span, with no page I/O, then writes every page of
    the level straight from the columns in a [prtree.write_level]
    span; the leaves' boxes and page ids are the next stage's columns.
    The pages are those {!load} writes for the same entries in any
    order. *)

val stages :
  span:string ->
  dims:int ->
  ?priority_size:int ->
  Prt_storage.Buffer_pool.t ->
  Pseudo.columns ->
  int * int
(** The staged loop itself, for entries of any dimension held as [2 *
    dims] columns: it writes every page through
    {!Prt_rtree.Node.encode_columns} and returns the root's page id and
    the tree's height.  Each stage is a [span ^ ".stage"] span around
    [span ^ ".pseudo"] and [span ^ ".write_level"]; the root is written
    outside them.  Raises [Invalid_argument] on no entries. *)
