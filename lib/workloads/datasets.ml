(* The paper's synthetic datasets (Section 3.2), all in the unit square:

   - size(max_side): uniform centers, side lengths uniform in
     [0, max_side], rectangles falling outside the square are redrawn;
   - aspect(a): fixed area 1e-6, aspect ratio a, longest side horizontal
     or vertical with equal probability;
   - skewed(c): uniform points squeezed by y := y^c;
   - cluster: clusters of points in tiny squares with centers equally
     spaced on a horizontal line (the worst-case-style dataset of
     Table 1);
   - worst_case: the Theorem 3 grid of shifted columns
     (a Halton–Hammersley-style point set) on which a zero-output line
     query forces heuristic R-trees to visit every leaf.

   Every generator is deterministic in its [seed] and returns entries
   whose ids are their position in the returned array. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry

let entries_of_rects rects = Array.mapi (fun i r -> Entry.make r i) rects

let check_n n = if n < 0 then invalid_arg "Datasets: n must be >= 0"

let uniform_points ~n ~seed =
  check_n n;
  let rng = Rng.create seed in
  entries_of_rects (Array.init n (fun _ -> Rect.point (Rng.float rng 1.0) (Rng.float rng 1.0)))

let size ~n ~max_side ~seed =
  check_n n;
  if max_side < 0.0 || max_side > 1.0 then invalid_arg "Datasets.size: max_side outside [0,1]";
  let rng = Rng.create seed in
  let rec draw () =
    let w = Rng.float rng max_side and h = Rng.float rng max_side in
    let cx = Rng.float rng 1.0 and cy = Rng.float rng 1.0 in
    let xmin = cx -. (w /. 2.0) and ymin = cy -. (h /. 2.0) in
    let xmax = cx +. (w /. 2.0) and ymax = cy +. (h /. 2.0) in
    (* As in the paper: discard rectangles not completely inside. *)
    if xmin < 0.0 || ymin < 0.0 || xmax > 1.0 || ymax > 1.0 then draw ()
    else Rect.make ~xmin ~ymin ~xmax ~ymax
  in
  entries_of_rects (Array.init n (fun _ -> draw ()))

let rect_area = 1e-6

(* The accepted ratios, the paper's 10 .. 1e5 among them.  At 1e6 the
   long side is exactly 1.0, and the redraw below would wait for a
   centre of exactly 0.5. *)
let max_aspect = 1e5

let aspect ~n ~a ~seed =
  check_n n;
  if not (a >= 1.0 && a <= max_aspect) then
    invalid_arg "Datasets.aspect: aspect ratio outside [1, 1e5]";
  let rng = Rng.create seed in
  let long = sqrt (rect_area *. a) and short = sqrt (rect_area /. a) in
  let rec draw () =
    let horizontal = Rng.bool rng in
    let w, h = if horizontal then (long, short) else (short, long) in
    let cx = Rng.float rng 1.0 and cy = Rng.float rng 1.0 in
    let xmin = cx -. (w /. 2.0) and ymin = cy -. (h /. 2.0) in
    let xmax = cx +. (w /. 2.0) and ymax = cy +. (h /. 2.0) in
    if xmin < 0.0 || ymin < 0.0 || xmax > 1.0 || ymax > 1.0 then draw ()
    else Rect.make ~xmin ~ymin ~xmax ~ymax
  in
  entries_of_rects (Array.init n (fun _ -> draw ()))

let skewed ~n ~c ~seed =
  check_n n;
  if c < 1 then invalid_arg "Datasets.skewed: c must be >= 1";
  let rng = Rng.create seed in
  let pow_c y =
    let acc = ref 1.0 in
    for _ = 1 to c do
      acc := !acc *. y
    done;
    !acc
  in
  entries_of_rects
    (Array.init n (fun _ -> Rect.point (Rng.float rng 1.0) (pow_c (Rng.float rng 1.0))))

let cluster_side = 0.00001
let cluster_band_center = 0.5

let cluster ~n_clusters ~per_cluster ~seed =
  if n_clusters < 1 || per_cluster < 1 then invalid_arg "Datasets.cluster: need positive sizes";
  let rng = Rng.create seed in
  let half = cluster_side /. 2.0 in
  let rects =
    Array.init (n_clusters * per_cluster) (fun idx ->
        let c = idx / per_cluster in
        (* Cluster centers equally spaced along a horizontal line. *)
        let cx = (float_of_int c +. 0.5) /. float_of_int n_clusters in
        let x = cx -. half +. Rng.float rng cluster_side in
        let y = cluster_band_center -. half +. Rng.float rng cluster_side in
        Rect.point x y)
  in
  entries_of_rects rects

(* Flagpoles: zero-width vertical segments anchored at y = 0 with
   uniform heights and x positions. Not one of the paper's datasets —
   it is the input that separates the full PR-tree from its ablated
   variants: a thin horizontal strip near the top intersects only the
   tall poles, which the ymax-priority leaves capture near the root,
   while a plain 4-D kd-tree must open nearly every leaf (each kd cell's
   bounding box reaches its tallest pole). *)
let flagpoles ~n ~seed =
  check_n n;
  let rng = Rng.create seed in
  entries_of_rects
    (Array.init n (fun _ ->
         let x = Rng.float rng 1.0 in
         let h = Rng.float rng 1.0 in
         Rect.make ~xmin:x ~ymin:0.0 ~xmax:x ~ymax:h))

(* The matching zero-ish-output queries: thin strips near the top. *)
let flagpole_queries ~count ~seed =
  if count < 0 then invalid_arg "Datasets.flagpole_queries: count must be >= 0";
  let rng = Rng.create seed in
  Array.init count (fun _ ->
      let y = 0.98 +. Rng.float rng 0.015 in
      Rect.make ~xmin:0.0 ~ymin:y ~xmax:1.0 ~ymax:(y +. 0.001))

(* Bit reversal of the [bits]-bit representation of [i]. *)
let bit_reverse ~bits i =
  let r = ref 0 in
  for k = 0 to bits - 1 do
    if i land (1 lsl k) <> 0 then r := !r lor (1 lsl (bits - 1 - k))
  done;
  !r

type worst_case = { entries : Entry.t array; columns : int; rows : int }

let worst_case ~columns_log2 ~b =
  if columns_log2 < 1 || columns_log2 > 24 then
    invalid_arg "Datasets.worst_case: columns_log2 outside 1..24";
  if b < 1 then invalid_arg "Datasets.worst_case: b must be >= 1";
  let columns = 1 lsl columns_log2 in
  let n = columns * b in
  (* Point p_ij = (i + 1/2, j/B + h(i)/N) with h the bit reversal: each
     column shifted vertically by a different tiny amount, every row a
     low-discrepancy point set. *)
  let rects =
    Array.init n (fun idx ->
        let i = idx / b and j = idx mod b in
        let x = float_of_int i +. 0.5 in
        let y =
          (float_of_int j /. float_of_int b)
          +. (float_of_int (bit_reverse ~bits:columns_log2 i) /. float_of_int n)
        in
        Rect.point x y)
  in
  { entries = entries_of_rects rects; columns; rows = b }

(* A horizontal zero-output line query through the worst-case grid:
   y = j/B + (h + 1/2)/N lies strictly between two admissible point
   heights, so it touches no point but crosses every column. *)
let worst_case_query { columns; rows; _ } ~row =
  if row < 0 || row >= rows then invalid_arg "Datasets.worst_case_query: bad row";
  let n = columns * rows in
  let y = (float_of_int row /. float_of_int rows) +. (0.5 /. float_of_int n) in
  Rect.make ~xmin:0.0 ~ymin:y ~xmax:(float_of_int columns) ~ymax:y
