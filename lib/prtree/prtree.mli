(** The Priority R-tree: worst-case-optimal R-tree bulk loading
    (Theorem 1 of the paper).

    Builds an ordinary {!Prt_rtree.Rtree.t} — queryable and updatable
    like any other — whose window queries are guaranteed
    [O(sqrt(N/B) + T/B)] I/Os. Each level is the set of leaves of a
    pseudo-PR-tree built on the previous level's bounding boxes. *)

val load :
  ?priority_size:int -> Prt_storage.Buffer_pool.t -> Prt_rtree.Entry.t array -> Prt_rtree.Rtree.t
(** In-memory staged construction (expected O(N log N) work): each
    stage writes the leaves {!Pseudo.build_leaves} gives for the
    previous level's boxes, with no pseudo-PR-tree in between. For the
    I/O-efficient external construction see {!Ext_build}.
    [priority_size] is the ablation knob of {!Pseudo.build}. *)
