(* d-dimensional axis-parallel boxes, for the multi-dimensional PR-tree
   of Section 2.3.  Coordinates are stored as two parallel float arrays;
   boxes are immutable by convention (the arrays are never mutated after
   construction and accessors return copies). *)

type t = { lo : float array; hi : float array }

let make ~lo ~hi =
  let d = Array.length lo in
  if d = 0 then invalid_arg "Hyperrect.make: zero dimensions";
  if Array.length hi <> d then invalid_arg "Hyperrect.make: lo/hi dimension mismatch";
  for i = 0 to d - 1 do
    if not (lo.(i) <= hi.(i)) then invalid_arg "Hyperrect.make: inverted box"
  done;
  { lo = Array.copy lo; hi = Array.copy hi }

let point coords =
  if Array.length coords = 0 then invalid_arg "Hyperrect.point: zero dimensions";
  { lo = Array.copy coords; hi = Array.copy coords }

let dims b = Array.length b.lo
let lo b i = b.lo.(i)
let hi b i = b.hi.(i)
let side b i = b.hi.(i) -. b.lo.(i)

let of_rect r =
  { lo = [| Rect.xmin r; Rect.ymin r |]; hi = [| Rect.xmax r; Rect.ymax r |] }

let to_rect b =
  if dims b <> 2 then invalid_arg "Hyperrect.to_rect: not 2-dimensional";
  Rect.make ~xmin:b.lo.(0) ~ymin:b.lo.(1) ~xmax:b.hi.(0) ~ymax:b.hi.(1)

let volume b =
  let v = ref 1.0 in
  for i = 0 to dims b - 1 do
    v := !v *. side b i
  done;
  !v

let margin b =
  let m = ref 0.0 in
  for i = 0 to dims b - 1 do
    m := !m +. side b i
  done;
  !m

let equal a b =
  dims a = dims b
  && (let ok = ref true in
      for i = 0 to dims a - 1 do
        if not (Float.equal a.lo.(i) b.lo.(i) && Float.equal a.hi.(i) b.hi.(i)) then ok := false
      done;
      !ok)

let intersects a b =
  if dims a <> dims b then invalid_arg "Hyperrect.intersects: dimension mismatch";
  let ok = ref true in
  for i = 0 to dims a - 1 do
    if a.lo.(i) > b.hi.(i) || b.lo.(i) > a.hi.(i) then ok := false
  done;
  !ok

let contains outer inner =
  if dims outer <> dims inner then invalid_arg "Hyperrect.contains: dimension mismatch";
  let ok = ref true in
  for i = 0 to dims outer - 1 do
    if outer.lo.(i) > inner.lo.(i) || inner.hi.(i) > outer.hi.(i) then ok := false
  done;
  !ok

let union a b =
  if dims a <> dims b then invalid_arg "Hyperrect.union: dimension mismatch";
  let d = dims a in
  {
    lo = Array.init d (fun i -> Float.min a.lo.(i) b.lo.(i));
    hi = Array.init d (fun i -> Float.max a.hi.(i) b.hi.(i));
  }

let union_map ?(lo = 0) ?hi ~f items =
  let stop = match hi with Some h -> h | None -> Array.length items in
  if stop <= lo then invalid_arg "Hyperrect.union_map: empty range";
  let acc = ref (f items.(lo)) in
  for i = lo + 1 to stop - 1 do
    acc := union !acc (f items.(i))
  done;
  !acc

(* kd-coordinate of the 2d-dimensional point a box maps to: dimensions
   0..d-1 are the low sides, d..2d-1 the high sides. *)
let coord dim b =
  let d = dims b in
  if dim < 0 || dim >= 2 * d then invalid_arg "Hyperrect.coord: dimension out of range";
  if dim < d then b.lo.(dim) else b.hi.(dim - d)

let write_columns b cols i =
  let d = dims b in
  if Array.length cols <> 2 * d then invalid_arg "Hyperrect.write_columns: expected 2d columns";
  for k = 0 to d - 1 do
    Float.Array.set cols.(k) i b.lo.(k);
    Float.Array.set cols.(d + k) i b.hi.(k)
  done

let pp ppf b =
  Fmt.pf ppf "@[<h>{";
  for i = 0 to dims b - 1 do
    if i > 0 then Fmt.pf ppf "; ";
    Fmt.pf ppf "[%g,%g]" b.lo.(i) b.hi.(i)
  done;
  Fmt.pf ppf "}@]"
