(** The paged d-dimensional R-tree: window queries with per-level visit
    counts (the d-D analogue of {!Prt_rtree.Rtree}).  Its pages are in
    {!Prt_rtree.Node}'s layout for its dimension ({!Node_nd}), its window
    query runs {!Prt_rtree.Rtree}'s descent engine
    ({!Prt_rtree.Rtree.descend_box}) and its audit
    {!Prt_rtree.Audit.check}. *)

type t

type query_stats = Prt_rtree.Rtree.query_stats = {
  mutable internal_visited : int;
  mutable leaf_visited : int;
  mutable matched : int;
  mutable skipped_subtrees : int;
  mutable skipped_pages : int list;
  mutable timed_out : bool;
}

val create_empty : dims:int -> Prt_storage.Buffer_pool.t -> t

val of_root :
  pool:Prt_storage.Buffer_pool.t -> dims:int -> root:int -> height:int -> count:int -> t

val dims : t -> int
val root : t -> int
val height : t -> int
val count : t -> int
val page_size : t -> int
val capacity : t -> int
val read_node : t -> int -> Node_nd.t

val query : t -> Prt_geom.Hyperrect.t -> f:(Entry_nd.t -> unit) -> query_stats
(** Window query: [f] runs on every entry whose box intersects the
    window, in delivery order, after the descent has finished — so [f]
    may query again.  Raises [Invalid_argument] if the window's
    dimensionality differs from the tree's. *)

val query_list : t -> Prt_geom.Hyperrect.t -> Entry_nd.t list * query_stats
val query_count : t -> Prt_geom.Hyperrect.t -> query_stats

val audit : ?check_leaks:bool -> t -> Prt_rtree.Audit.report
(** [Prt_rtree.Audit.check] at the tree's dimension. *)

val validate : t -> Prt_rtree.Audit.report
(** [Prt_rtree.Audit.validate] at the tree's dimension: raises
    [Prt_rtree.Audit.Invalid] with the first violation. *)
