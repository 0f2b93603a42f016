(* Two-dimensional axis-parallel rectangles (closed).  This is the
   minimal-bounding-box algebra every index in the repository is built
   on.  Rectangles are immutable; degenerate rectangles (points and
   segments) are valid input, exactly as in the paper's experiments. *)

type t = { xmin : float; ymin : float; xmax : float; ymax : float }

let inverted xmin ymin xmax ymax =
  invalid_arg (Printf.sprintf "Rect.make: inverted rectangle (%g,%g)-(%g,%g)" xmin ymin xmax ymax)

let make ~xmin ~ymin ~xmax ~ymax =
  if not (xmin <= xmax && ymin <= ymax) then inverted xmin ymin xmax ymax;
  { xmin; ymin; xmax; ymax }

(* The 32-byte little-endian layout — xmin, ymin, xmax, ymax as float64
   — that records, dataset files and wire frames share.  [make]'s check
   is written out here: a call to [make] would box its four arguments,
   so only the raising path boxes. *)
let[@inline] get_f64 buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)

let read buf off =
  let xmin = get_f64 buf off in
  let ymin = get_f64 buf (off + 8) in
  let xmax = get_f64 buf (off + 16) in
  let ymax = get_f64 buf (off + 24) in
  if not (xmin <= xmax && ymin <= ymax) then inverted xmin ymin xmax ymax;
  { xmin; ymin; xmax; ymax }

let of_corners (x0, y0) (x1, y1) =
  { xmin = Float.min x0 x1; ymin = Float.min y0 y1; xmax = Float.max x0 x1; ymax = Float.max y0 y1 }

let point x y = { xmin = x; ymin = y; xmax = x; ymax = y }

let xmin r = r.xmin
let ymin r = r.ymin
let xmax r = r.xmax
let ymax r = r.ymax

let width r = r.xmax -. r.xmin
let height r = r.ymax -. r.ymin
let area r = width r *. height r
let margin r = width r +. height r
let center r = ((r.xmin +. r.xmax) /. 2.0, (r.ymin +. r.ymax) /. 2.0)

let equal a b =
  Float.equal a.xmin b.xmin && Float.equal a.ymin b.ymin && Float.equal a.xmax b.xmax
  && Float.equal a.ymax b.ymax

let compare = Stdlib.compare

let intersects a b =
  a.xmin <= b.xmax && b.xmin <= a.xmax && a.ymin <= b.ymax && b.ymin <= a.ymax

let contains outer inner =
  outer.xmin <= inner.xmin && outer.ymin <= inner.ymin && inner.xmax <= outer.xmax
  && inner.ymax <= outer.ymax

let contains_point r x y = r.xmin <= x && x <= r.xmax && r.ymin <= y && y <= r.ymax

let union a b =
  {
    xmin = Float.min a.xmin b.xmin;
    ymin = Float.min a.ymin b.ymin;
    xmax = Float.max a.xmax b.xmax;
    ymax = Float.max a.ymax b.ymax;
  }

let intersection a b =
  if intersects a b then
    Some
      {
        xmin = Float.max a.xmin b.xmin;
        ymin = Float.max a.ymin b.ymin;
        xmax = Float.min a.xmax b.xmax;
        ymax = Float.min a.ymax b.ymax;
      }
  else None

let overlap_area a b =
  match intersection a b with Some r -> area r | None -> 0.0

let enlargement r extra = area (union r extra) -. area r

let union_array ?(lo = 0) ?hi rects =
  let hi = match hi with Some h -> h | None -> Array.length rects in
  if hi <= lo then invalid_arg "Rect.union_array: empty range";
  let acc = ref rects.(lo) in
  for i = lo + 1 to hi - 1 do
    acc := union !acc rects.(i)
  done;
  !acc

let union_map ?(lo = 0) ?hi ~f items =
  let hi = match hi with Some h -> h | None -> Array.length items in
  if hi <= lo then invalid_arg "Rect.union_map: empty range";
  let acc = ref (f items.(lo)) in
  for i = lo + 1 to hi - 1 do
    acc := union !acc (f items.(i))
  done;
  !acc

(* The four "kd dimensions" of the PR-tree view a rectangle as the
   4-D point (xmin, ymin, xmax, ymax). *)
let coord dim r =
  match dim with
  | 0 -> r.xmin
  | 1 -> r.ymin
  | 2 -> r.xmax
  | 3 -> r.ymax
  | _ -> invalid_arg "Rect.coord: dimension must be in 0..3"

let pp ppf r = Fmt.pf ppf "[%g,%g]x[%g,%g]" r.xmin r.xmax r.ymin r.ymax
