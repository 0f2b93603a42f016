(** R-tree entries: a rectangle plus a 32-bit payload (data id in
    leaves, child page id in internal nodes).

    The byte encoding ({!write}, {!read}: dataset files, WAL records,
    sorted runs) is the paper's 36-byte record — four 8-byte coordinates
    and a 4-byte pointer.  Node pages store the same 36 bytes per entry
    as columns ({!Node}), which yields the paper's fanout of 113 on 4 KB
    pages. *)

type t = { rect : Prt_geom.Rect.t; id : int }

val make : Prt_geom.Rect.t -> int -> t
val rect : t -> Prt_geom.Rect.t
val id : t -> int
val equal : t -> t -> bool

val compare_dim : int -> t -> t -> int
(** [compare_dim dim] totally orders entries by kd-coordinate [dim]
    (0..3 = xmin, ymin, xmax, ymax), breaking ties by the full rectangle
    and then the id, so duplicated geometry still orders
    deterministically. *)

val size : int
(** 36 bytes. *)

val write : bytes -> int -> t -> unit
val read : bytes -> int -> t
val pp : Format.formatter -> t -> unit

(** External-memory files of entries (see {!Prt_extsort.Record_file}). *)
module File : sig
  include module type of Prt_extsort.Record_file.Make (struct
    type nonrec t = t

    let size = size
    let write = write
    let read = read
  end)
end
