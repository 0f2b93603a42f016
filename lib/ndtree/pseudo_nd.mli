(** The d-dimensional pseudo-PR-tree (Section 2.3 of the paper): a
    2d-dimensional kd-tree with 2d priority leaves per node. *)

type t =
  | Leaf of {
      mbr : Prt_geom.Hyperrect.t;
      entries : Entry_nd.t array;
      priority : int option;
          (** the direction (0..2d-1) this leaf is extreme in, or [None]
              for an ordinary kd-leaf *)
    }
  | Node of { mbr : Prt_geom.Hyperrect.t; children : t list }

val build : ?b:int -> dims:int -> Entry_nd.t array -> t
(** Raises [Invalid_argument] on empty input, [b < 1], or entries of the
    wrong dimensionality. *)

val mbr : t -> Prt_geom.Hyperrect.t
val leaves : t -> Entry_nd.t array list

val fold_leaves :
  t -> init:'acc -> f:('acc -> entries:Entry_nd.t array -> priority:int option -> 'acc) -> 'acc

val size : t -> int

val extreme_cmp : dims:int -> int -> Entry_nd.t -> Entry_nd.t -> int
(** Total order putting the most extreme entry of a priority direction
    first. *)
