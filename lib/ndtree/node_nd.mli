(** On-page node codec of the d-dimensional R-tree.

    A page holds {!Entry_nd} records in {!Prt_rtree.Node}'s layout for
    dimension [d] ({!Prt_rtree.Node.section-layout}): [2d] float64
    columns, the int32 ids, the kind byte and the u16 count.  The
    entries are in page order ({!page_compare}), which the descent in
    {!Prt_rtree.Rtree} relies on to stop a node's scan early.  At
    [d = 2] a page is exactly the one {!Prt_rtree.Node.encode} writes
    for the same entries. *)

type kind = Prt_rtree.Node.kind = Leaf | Internal

type t

val capacity : page_size:int -> dims:int -> int
(** [Prt_rtree.Node.capacity_nd]: [(payload - 3) / (16d + 4)]. *)

val make : kind -> Entry_nd.t array -> t
val kind : t -> kind
val entries : t -> Entry_nd.t array
val length : t -> int

val page_compare : Entry_nd.t -> Entry_nd.t -> int
(** The order of entries on a page: ascending [lo_0] with NaN last,
    ties broken by [Entry_nd.compare_dim 0] — {!Prt_rtree.Node.page_compare}'s
    order, for boxes. *)

val in_page_order : Entry_nd.t array -> bool
(** Is the array sorted by {!page_compare}?  One O(n) pass. *)

val encode : page_size:int -> dims:int -> t -> bytes
(** A fresh page holding the entries in page order: copied into [2 *
    dims] columns, then {!Prt_rtree.Node.page_of_columns} (the node's own
    array is never reordered).  Raises [Invalid_argument] if the node
    exceeds the page capacity or an entry is not [dims]-dimensional. *)

val decode : dims:int -> bytes -> t
(** The entries in the order the page holds them, through
    {!Prt_rtree.Node.read_columns}.  Raises [Invalid_argument] with its
    reason on a page it refuses. *)
