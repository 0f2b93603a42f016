(** The d-dimensional pseudo-PR-tree (Section 2.3 of the paper): a
    2d-dimensional kd-tree with 2d priority leaves per node —
    {!Prt_prtree.Pseudo}'s tree and kernel on [Hyperrect] boxes. *)

type t = (Prt_geom.Hyperrect.t, Entry_nd.t) Prt_prtree.Pseudo.tree

val geometry : dims:int -> (Prt_geom.Hyperrect.t, Entry_nd.t) Prt_prtree.Pseudo.geometry
(** [Entry_nd]s of dimension [dims]: the columns lo_0 .. lo_{d-1},
    hi_0 .. hi_{d-1}, ordered by {!Entry_nd.compare_dim}. *)

val build : ?b:int -> dims:int -> Entry_nd.t array -> t
(** [Prt_prtree.Pseudo.build_with] over {!geometry}.  Raises
    [Invalid_argument] on empty input, [b < 1], or entries of the
    wrong dimensionality. *)

val build_leaves :
  b:int -> dims:int -> Entry_nd.t array -> (Prt_geom.Hyperrect.t * Entry_nd.t array) list
(** The leaves of [build ~b ~dims], in the same order, each in page
    order ({!Node_nd.page_compare}) and with the box
    [Hyperrect.union_map] gives over it.  Same exceptions as
    {!build}. *)

val columns : dims:int -> Entry_nd.t array -> Prt_prtree.Pseudo.columns
(** The entries copied into the kernel's columns, as
    {!Prtree_nd.load} hands them to the staged loader.  Raises
    [Invalid_argument] on entries of the wrong dimensionality. *)

val leaves : t -> Entry_nd.t array list
val size : t -> int
