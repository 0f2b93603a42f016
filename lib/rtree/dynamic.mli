(** Dynamic R-tree updates: Guttman insertion and deletion with tree
    condensation.

    Applicable to any bulk-loaded {!Rtree.t}; as the paper notes, doing
    so forfeits the bulk-loaded query guarantees (measured by the
    degradation experiment in the bench harness). *)

type config = {
  split_algorithm : Split.algorithm;
  min_fill_fraction : float;
      (** minimum node fill as a fraction of capacity, used both as the
          split minimum and the deletion underflow threshold *)
  forced_reinsert_fraction : float;
      (** R* forced reinsertion: on the first overflow per level during
          an insertion, this fraction of the node's entries (those whose
          centers are farthest from the node center) is evicted and
          reinserted instead of splitting. [0.] disables. *)
  rstar_choose_subtree : bool;
      (** R* ChooseSubtree: at the level just above the insertion target,
          descend into the child whose overlap with its siblings grows
          least (Guttman least-enlargement elsewhere). *)
}

val default_config : config
(** Quadratic split, 40% minimum fill, Guttman descent, no forced
    reinsertion. *)

val rstar_config : config
(** The full R* policy: R* split, overlap-minimizing ChooseSubtree, 40%
    minimum fill, 30% forced reinsertion. *)

val insert : ?config:config -> Rtree.t -> Entry.t -> unit
(** Insert a data entry (O(log_B N) node touches plus splits).  Raises
    [Invalid_argument], before any page is touched, on a rectangle that
    {!Node.decode} would refuse: one with a NaN coordinate. *)

val delete : ?config:config -> Rtree.t -> Entry.t -> bool
(** Delete the entry matching by rectangle and id; underfull nodes are
    dissolved and their entries reinserted at their original level.
    Returns [false] if no such entry is stored. *)
