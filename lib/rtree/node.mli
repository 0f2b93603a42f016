(** On-page R-tree node codec (format v4).

    A node is a kind tag plus {!Entry} records, stored as columns: all
    [xmin]s, then all [ymin]s, [xmax]s and [ymax]s (float64), then the
    int32 ids, then the kind byte and the u16 entry count.  Each
    coordinate sits on an 8-byte boundary, so the mapped descent loads
    it inline.  An entry takes 36 bytes as in the paper, so with the
    default 4 KB page the capacity is 113 entries.  The layout is the
    [d = 2] case of one layout for entries of any dimension (see
    {!section:layout}), which [Prt_ndtree.Node_nd] writes for the
    d-dimensional tree.

    The entries of a page are in {e page order} ({!page_compare}):
    {!encode_columns}, through which every page is written, enforces it
    and {!decode} returns it, so the descent in {!Rtree} can stop a
    node's scan at the first entry whose [xmin] exceeds the query's
    bound.  This module is the only owner of the format: one encoder
    ({!encode_columns}), one checked reader ({!read_columns}) and one
    page order on columns ({!column_page_compare}). *)

type kind = Leaf | Internal

type t

val capacity : page_size:int -> int
(** Maximum entries per node for a given page size:
    [(Page.payload_size page_size - 3) / 36]. *)

val make : kind -> Entry.t array -> t
(** The array is owned by the node afterwards. *)

val kind : t -> kind
val entries : t -> Entry.t array
val length : t -> int

val mbr : t -> Prt_geom.Rect.t
(** Bounding box of all entries. Raises [Invalid_argument] on an empty
    node. *)

val page_compare : Entry.t -> Entry.t -> int
(** The order of entries on a page: ascending [xmin] with NaN last, ties
    broken by the rest of [Entry.compare_dim 0]'s order (the rectangle
    in [Rect.compare] order, then the id).  With NaN last, [xmin <= b]
    holds on a prefix of a page for every bound [b]. *)

val in_page_order : Entry.t array -> bool
(** Is the array sorted by {!page_compare}?  One O(n) pass. *)

val encode : page_size:int -> t -> bytes
(** A fresh page holding the entries in page order: copied into columns,
    then {!page_of_columns} (the node's own array is never reordered).
    Raises [Invalid_argument] if the node exceeds the page capacity. *)

val decode : bytes -> t
(** The entries in the order the page holds them — page order, for a
    page {!encode} wrote — through {!read_columns}.  Raises
    [Invalid_argument] with its reason, after ["Node.decode: "], on a
    page it refuses. *)

(** {1 Nodes held as columns}

    A node's entries picked out of columns: [cols] holds the [2 * dims]
    coordinate columns in the layout's order (lo{_0} .. lo{_dims-1},
    then hi{_0} .. hi{_dims-1}), [ids] the ids, and [positions.(0 .. n -
    1)] the slots of the node's entries.  Every page is written this
    way: the PR-tree's staged loader straight from the level it holds,
    {!encode} and [Prt_ndtree.Node_nd.encode] from a copy. *)

val column_page_compare : Float.Array.t array -> int array -> int -> int -> int
(** [column_page_compare cols ids x y] orders slots [x] and [y] of the
    columns in page order: {!page_compare}'s order (ascending
    lo{_0}, NaN last, then every column in turn, then the id).  The one
    page order: {!sort_columns} sorts by it, {!encode_columns} refuses a
    page that breaks it and [Audit] flags such a page with it. *)

val sort_columns :
  Float.Array.t array -> int array -> int array -> scratch:int array -> int -> unit
(** [sort_columns cols ids positions ~scratch n] puts [positions.(0 ..
    n - 1)] in page order ({!column_page_compare}), stably.  [scratch]
    holds at least [n] ints; no allocation. *)

val encode_columns :
  bytes -> dims:int -> kind -> Float.Array.t array -> int array -> int array -> int -> unit
(** [encode_columns page ~dims kind cols ids positions n] overwrites
    [page] (its length is the page size) with the node holding the [n]
    entries at [positions], in the layout for [dims] dimensions.  The
    only code that lays out node bytes.  Raises [Invalid_argument]
    unless [positions] is in page order ({!sort_columns}), if the node
    exceeds the page capacity or an id exceeds 32 bits. *)

val page_of_columns :
  page_size:int -> dims:int -> kind -> Float.Array.t array -> int array -> int -> bytes
(** [page_of_columns ~page_size ~dims kind cols ids n]: a fresh page
    holding the [n] entries in slots [0 .. n - 1] of the columns, sorted
    into page order ({!sort_columns}) and written by {!encode_columns}.
    The columns are not reordered. *)

val read_columns :
  dims:int -> bytes -> (kind * Float.Array.t array * int array, string) result
(** The one checked reader: a page of [dims]-dimensional entries as its
    kind, its [2 * dims] coordinate columns (in the layout's order, one
    slot per entry) and its ids.  [Error] names what makes it no node
    page: ["bad node kind K"], ["count N exceeds capacity C"] or
    ["entry I has an inverted or NaN box"] (lo{_k} <= hi{_k} fails for
    some [k]).  {!decode}, [Prt_ndtree.Node_nd.decode] and [Audit]'s
    walk read pages through it. *)

(** {1:layout Page layout}

    Byte offsets inside an encoded node page of [page_size] bytes, for
    entries of any dimension [dims].  A page of capacity [c] holds
    [2 * dims] float64 columns of [c] slots — the low sides lo{_0} to
    lo{_dims-1}, then the high sides hi{_0} to hi{_dims-1} — then [c]
    int32 ids, then the kind byte and the u16 count.  An entry takes
    [16 * dims + 4] bytes.  These offsets are the only description of
    the layout outside this module: anything that reads or patches node
    bytes in place goes through them. *)

val capacity_nd : page_size:int -> dims:int -> int
(** [(Page.payload_size page_size - 3) / (16 * dims + 4)]; {!capacity}
    is [dims = 2]. *)

val column_offset : page_size:int -> dims:int -> int -> int -> int
(** [column_offset ~page_size ~dims k i]: float64 column [k] of entry
    [i], [8 * (k * c + i)].  Column [k < dims] holds lo{_k}, column
    [dims + k] holds hi{_k}. *)

val id_offset_nd : page_size:int -> dims:int -> int -> int
(** The int32 id of entry [i]: [16 * dims * c + 4 * i]. *)

val kind_offset_nd : page_size:int -> dims:int -> int
(** The kind byte: [(16 * dims + 4) * c], right after the id column. *)

val count_offset_nd : page_size:int -> dims:int -> int
(** The u16 entry count, after the kind byte. *)

(** The 2-D page: the offsets above at
    [dims = 2], with [xmin], [ymin], [xmax] and [ymax] in columns 0 to
    3. *)

type coord = Xmin | Ymin | Xmax | Ymax

val coord_offset : page_size:int -> int -> coord -> int
(** [coord_offset ~page_size i c]: coordinate [c] of entry [i],
    [8 * (column * capacity + i)] with columns in [coord] order. *)

val id_offset : page_size:int -> int -> int
(** The int32 id of entry [i]: [32 * capacity + 4 * i]. *)

val kind_offset : page_size:int -> int
(** The kind byte: [36 * capacity], right after the id column. *)

val count_offset : page_size:int -> int
(** The u16 entry count, after the kind byte. *)

(** {1 In-place page access}

    Header accessors for an encoded node page — as [bytes], or inside a
    mapped window of the whole index file ({!Prt_storage.View})
    addressed by the page's absolute byte offset [base].  The descent
    engine in {!Rtree} scans the columns in place and uses these for
    the header. *)

val page_kind : bytes -> kind
(** Kind tag of an encoded page. Raises [Invalid_argument] like
    {!decode} on a corrupt tag. *)

val page_length : bytes -> int
(** Entry count of an encoded page (as stored: not clamped to the
    capacity). *)

val page_kind_nd : dims:int -> bytes -> kind
val page_length_nd : dims:int -> bytes -> int
(** {!page_kind} and {!page_length} of a page of [dims]-dimensional
    entries. *)

val page_tail_zero : bytes -> bool
(** Are the payload bytes after the header zero, as {!encode} leaves
    them?  A page of another kind (a journal or shadow directory) that
    happens to carry a plausible kind byte and count almost never
    passes this too. *)

val map_kind : Prt_storage.View.map -> page_size:int -> base:int -> kind
val map_length : Prt_storage.View.map -> page_size:int -> base:int -> int
