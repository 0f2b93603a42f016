(** External-memory (I/O-counted) bulk loading for the baseline R-trees.

    Inputs are {!Entry.File} record files in the same pager as the
    resulting tree; every scan, sort and distribution goes through the
    pager, so the pager's counters measure the construction cost the way
    the paper's Figures 9-11 do. Input files are left intact. *)

val load_h :
  Prt_storage.Buffer_pool.t -> mem_records:int -> Entry.File.t -> Rtree.t
(** Packed Hilbert R-tree: one external sort by 2-D Hilbert key of the
    centers, one packing scan. *)

val load_h4 :
  Prt_storage.Buffer_pool.t -> mem_records:int -> Entry.File.t -> Rtree.t
(** Four-dimensional Hilbert R-tree: same, sorting by the 4-D Hilbert
    key. *)

val load_tgs :
  Prt_storage.Buffer_pool.t -> mem_records:int -> Entry.File.t -> Rtree.t
(** Top-down Greedy Split: four external sorts up front, then a scan of
    the current subset per binary partition — effectively
    O((N/B) log2 N) I/Os, as the paper observes. *)

val world_of_file : Entry.File.t -> Prt_geom.Rect.t
(** Bounding box of a file's entries (one scan). *)

val pack_sorted_file : Prt_storage.Buffer_pool.t -> Entry.File.t -> Rtree.t
(** Pack an already-ordered entry file into a tree bottom-up. *)
