(** Closed axis-parallel rectangles in the plane: the minimal-bounding-box
    algebra underlying every index in this repository.

    A rectangle is the set [\[xmin,xmax\] x \[ymin,ymax\]]; degenerate
    rectangles (points, horizontal/vertical segments) are valid. *)

type t = private { xmin : float; ymin : float; xmax : float; ymax : float }

val make : xmin:float -> ymin:float -> xmax:float -> ymax:float -> t
(** Raises [Invalid_argument] if [xmin > xmax] or [ymin > ymax]. *)

val read : bytes -> int -> t
(** [read buf off]: the rectangle stored in the 32 bytes at [off] as
    four little-endian float64s, xmin, ymin, xmax, ymax — the one reader
    of the layout that entry records and wire frames share.  No
    coordinate is boxed on the way.  Raises [Invalid_argument] exactly
    as {!make} does for an inverted or NaN box, and if the 32 bytes are
    not inside [buf]. *)

val of_corners : float * float -> float * float -> t
(** Bounding box of two arbitrary corner points. *)

val point : float -> float -> t
(** Degenerate rectangle covering a single point. *)

val xmin : t -> float
val ymin : t -> float
val xmax : t -> float
val ymax : t -> float

val width : t -> float
val height : t -> float

val area : t -> float
(** Zero for degenerate rectangles. *)

val margin : t -> float
(** Half-perimeter [width + height] (the R*-tree "margin"). *)

val center : t -> float * float

val equal : t -> t -> bool
val compare : t -> t -> int

val intersects : t -> t -> bool
(** Closed-rectangle intersection: touching boundaries intersect. *)

val contains : t -> t -> bool
(** [contains outer inner]: is [inner] fully inside [outer]? *)

val contains_point : t -> float -> float -> bool

val union : t -> t -> t
(** Smallest rectangle covering both arguments. *)

val intersection : t -> t -> t option
val overlap_area : t -> t -> float

val enlargement : t -> t -> float
(** [enlargement r extra]: area growth of [r] needed to also cover
    [extra] (Guttman's insertion criterion). *)

val union_array : ?lo:int -> ?hi:int -> t array -> t
(** Bounding box of [rects.(lo) .. rects.(hi-1)]; whole array by default.
    Raises [Invalid_argument] on an empty range. *)

val union_map : ?lo:int -> ?hi:int -> f:('a -> t) -> 'a array -> t
(** Bounding box of the rectangles of a slice of arbitrary items. *)

val coord : int -> t -> float
(** [coord dim r] reads the PR-tree kd-coordinate: dimensions
    [0,1,2,3] are [xmin, ymin, xmax, ymax]. Raises [Invalid_argument]
    otherwise. *)

val pp : Format.formatter -> t -> unit
