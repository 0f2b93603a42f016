(** On-page R-tree node codec.

    A node is a kind tag plus packed {!Entry} records; with the default
    4 KB page the capacity is 113 entries, as in the paper. *)

type kind = Leaf | Internal

type t

val capacity : page_size:int -> int
(** Maximum entries per node for a given page size. *)

val make : kind -> Entry.t array -> t
(** The array is owned by the node afterwards. *)

val kind : t -> kind
val entries : t -> Entry.t array
val length : t -> int

val mbr : t -> Prt_geom.Rect.t
(** Bounding box of all entries. Raises [Invalid_argument] on an empty
    node. *)

val encode : page_size:int -> t -> bytes
(** Raises [Invalid_argument] if the node exceeds the page capacity. *)

val decode : bytes -> t
(** Raises [Invalid_argument] on a corrupt kind tag. *)

(** {1 In-place page access}

    Accessors for an encoded node page — as [bytes], or inside a
    mapped window of the whole index file ({!Prt_storage.View})
    addressed by the page's absolute byte offset [base].  The descent
    engine in {!Rtree} scans the packed entries in place and
    uses these for the header. *)

val header_size : int
(** Bytes before the first packed entry (kind tag + count). *)

val page_kind : bytes -> kind
(** Kind tag of an encoded page. Raises [Invalid_argument] like
    {!decode} on a corrupt tag. *)

val page_length : bytes -> int
(** Entry count of an encoded page. *)

val map_kind : Prt_storage.View.map -> base:int -> kind
val map_length : Prt_storage.View.map -> base:int -> int
