(** Closed axis-parallel boxes in [d] dimensions, for the
    multi-dimensional PR-tree (Section 2.3 of the paper). *)

type t

val make : lo:float array -> hi:float array -> t
(** [make ~lo ~hi] copies its arguments. Raises [Invalid_argument] on a
    dimension mismatch, zero dimensions, or [lo.(i) > hi.(i)]. *)

val point : float array -> t
(** Degenerate box covering a single point. *)

val dims : t -> int
val lo : t -> int -> float
val hi : t -> int -> float
val side : t -> int -> float

val of_rect : Rect.t -> t
(** Embed a 2-D rectangle. *)

val to_rect : t -> Rect.t
(** Project a 2-D box back to {!Rect.t}. Raises [Invalid_argument] if the
    box is not 2-dimensional. *)

val volume : t -> float
val margin : t -> float

val equal : t -> t -> bool
val intersects : t -> t -> bool
val contains : t -> t -> bool

val union : t -> t -> t
val union_map : ?lo:int -> ?hi:int -> f:('a -> t) -> 'a array -> t

val coord : int -> t -> float
(** [coord dim b] reads the kd-coordinate of the [2d]-dimensional point a
    box maps to: dimensions [0..d-1] are low sides, [d..2d-1] high
    sides. *)

val write_columns : t -> Float.Array.t array -> int -> unit
(** [write_columns b cols i] writes the box's [2d] kd-coordinates, in
    {!coord}'s order, into slot [i] of [cols.(0)] to [cols.(2d - 1)]:
    the column copy of the PR-tree's construction kernel, with no float
    boxed.  Raises [Invalid_argument] unless there are [2d] columns. *)

val pp : Format.formatter -> t -> unit
