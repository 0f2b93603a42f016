(** Hilbert-curve bulk loaders: the paper's [H] and [H4] baselines. *)

val hilbert2d_key : world:Prt_geom.Rect.t -> Entry.t -> int
(** Hilbert value of the entry's center on a [2^24 x 2^24] grid over the
    bounding square of the dataset (uniform scale on both axes — see the
    Hilbert-order ablation for why the resolution matters). *)

val hilbert4d_key : world:Prt_geom.Rect.t -> Entry.t -> int
(** 4-D Hilbert value of the entry's [(xmin, ymin, xmax, ymax)] point on
    a [2^15]-per-axis grid over the bounding square. *)

val load_h : Prt_storage.Buffer_pool.t -> Entry.t array -> Rtree.t
(** Packed Hilbert R-tree: sort by {!hilbert2d_key}, pack bottom-up. *)

val load_h4 : Prt_storage.Buffer_pool.t -> Entry.t array -> Rtree.t
(** Four-dimensional Hilbert R-tree: sort by {!hilbert4d_key}, pack
    bottom-up. *)
