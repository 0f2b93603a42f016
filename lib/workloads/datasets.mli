(** The paper's synthetic datasets (Section 3.2), generated
    deterministically in the unit square. Entry ids are array
    positions. *)

val uniform_points : n:int -> seed:int -> Prt_rtree.Entry.t array
(** Uniform point rectangles. *)

val size : n:int -> max_side:float -> seed:int -> Prt_rtree.Entry.t array
(** SIZE(max_side): uniform centers, sides uniform in [\[0, max_side\]],
    redrawn until fully inside the unit square. *)

val max_aspect : float
(** 1e5, the largest ratio {!aspect} accepts (the paper's largest). *)

val aspect : n:int -> a:float -> seed:int -> Prt_rtree.Entry.t array
(** ASPECT(a): fixed area 1e-6, aspect ratio [a], longest side
    horizontal or vertical with equal probability. Raises
    [Invalid_argument] unless [a] is in [\[1, max_aspect\]]. *)

val skewed : n:int -> c:int -> seed:int -> Prt_rtree.Entry.t array
(** SKEWED(c): uniform points squeezed by [y := y^c]. *)

val cluster : n_clusters:int -> per_cluster:int -> seed:int -> Prt_rtree.Entry.t array
(** CLUSTER: [n_clusters] clusters of [per_cluster] points in
    0.00001-wide squares, centers equally spaced on the horizontal
    mid-line (Table 1's dataset). *)

val cluster_side : float
val cluster_band_center : float

val flagpoles : n:int -> seed:int -> Prt_rtree.Entry.t array
(** Zero-width vertical segments anchored at [y = 0] with uniform
    heights — the extent-adversarial input used by the priority-leaf
    ablation (not from the paper). *)

val flagpole_queries : count:int -> seed:int -> Prt_geom.Rect.t array
(** Thin horizontal strips near the top of the flagpole field. *)

type worst_case = { entries : Prt_rtree.Entry.t array; columns : int; rows : int }

val worst_case : columns_log2:int -> b:int -> worst_case
(** The Theorem 3 construction: a grid of [2^columns_log2] columns by
    [b] rows, column [i] shifted vertically by
    [bitreverse(i) / N] — the dataset on which packed Hilbert, 4-D
    Hilbert and TGS R-trees must visit every leaf for a zero-output
    query. *)

val worst_case_query : worst_case -> row:int -> Prt_geom.Rect.t
(** A horizontal line between two point rows: crosses every column,
    reports nothing. *)

val bit_reverse : bits:int -> int -> int
