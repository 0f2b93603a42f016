(** Writing nodes for every loader that holds entries, and bottom-up
    level packing for the sort-based bulk loaders. *)

val write_node : Prt_storage.Buffer_pool.t -> kind:Node.kind -> Entry.t array -> Entry.t
(** [write_node pool ~kind entries] allocates a page, encodes the node
    holding [entries] ({!Node.encode}), hands the page to the pool and
    returns the node's parent entry: its MBR and page id.  The array is
    owned by the node afterwards. *)

val pack_up :
  Prt_storage.Buffer_pool.t ->
  order:(Entry.t array -> unit) ->
  count:int ->
  Entry.t array ->
  Rtree.t
(** [pack_up pool ~order ~count leaves]: the tree over the parent
    entries [leaves] of its leaf level (at least one) and [count] data
    entries.  Each upper level packs the level below in full nodes,
    after [order] has permuted it in place ([ignore] keeps the order).
    A single parent entry is the root. *)

val build_from_ordered : Prt_storage.Buffer_pool.t -> Entry.t array -> Rtree.t
(** Build a complete R-tree whose leaf order is the array order and whose
    upper levels pack that same order — the packed (Hilbert) R-tree
    construction.  Only the last node of a level may be underfull.  The
    input array is not modified. *)

val build_levelwise :
  Prt_storage.Buffer_pool.t -> order:(Entry.t array -> unit) -> Entry.t array -> Rtree.t
(** Like {!build_from_ordered}, but re-applies the in-place ordering
    [order] to every level before packing it (STR re-sorts each level by
    slabs). *)
