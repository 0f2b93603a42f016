(** Query forms beyond the plain window query, sharing its descent
    engine ({!Rtree.descend_iter}) and statistics. *)

val stabbing : Rtree.t -> x:float -> y:float -> f:(Entry.t -> unit) -> Rtree.query_stats
(** All stored rectangles containing the point. *)

val stabbing_list : Rtree.t -> x:float -> y:float -> Entry.t list * Rtree.query_stats

val enclosed : Rtree.t -> Prt_geom.Rect.t -> f:(Entry.t -> unit) -> Rtree.query_stats
(** All stored rectangles lying fully inside the window. *)

val enclosed_list : Rtree.t -> Prt_geom.Rect.t -> Entry.t list * Rtree.query_stats

val covering : Rtree.t -> Prt_geom.Rect.t -> f:(Entry.t -> unit) -> Rtree.query_stats
(** All stored rectangles fully covering the window. *)

val covering_list : Rtree.t -> Prt_geom.Rect.t -> Entry.t list * Rtree.query_stats

val exists : Rtree.t -> Prt_geom.Rect.t -> bool
(** Does any stored rectangle intersect the window? Stops the descent
    at the first hit. *)
