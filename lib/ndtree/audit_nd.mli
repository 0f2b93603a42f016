(** The d-dimensional pseudo-tree adapter of [Prt_rtree.Audit]: same
    violation vocabulary, applied to in-memory {!Pseudo_nd} trees.
    Paged {!Rtree_nd} trees are audited by {!Rtree_nd.audit}. *)

val check_pseudo : ?b:int -> dims:int -> Pseudo_nd.t -> Prt_rtree.Audit.violation list
(** Audit an in-memory d-dimensional pseudo-PR-tree: degree at most
    [2d + 2], leaf occupancy in [1, b], exact boxes, and priority-leaf
    extremeness in each of the [2d] directions. *)
