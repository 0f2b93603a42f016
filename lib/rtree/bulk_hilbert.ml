(* The packed Hilbert R-tree (H) and the four-dimensional Hilbert R-tree
   (H4) of Kamel and Faloutsos, the paper's first two baselines.

   H sorts rectangles by the 2-D Hilbert value of their centers; H4 maps
   each rectangle to the 4-D point (xmin, ymin, xmax, ymax) and sorts by
   its position on the 4-D Hilbert curve, thereby also clustering by
   extent.  Both then pack leaves in sorted order and build the upper
   levels bottom-up. *)

module Rect = Prt_geom.Rect
module Hilbert2d = Prt_hilbert.Hilbert2d
module Hilbert_nd = Prt_hilbert.Hilbert_nd
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

let order_2d = 24 (* fine enough that micro-clusters (1e-5 wide) still
                     get within-cluster Hilbert locality *)
let order_4d = 15 (* 4 * 15 = 60 index bits *)

type keyed = { key : int; entry : Entry.t }

let world_of entries =
  if Array.length entries = 0 then Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0
  else Rect.union_map ~f:Entry.rect entries

(* Quantization uses a uniform scale on both axes — the bounding square
   of the data — rather than normalizing each axis separately.  This is
   what typical Hilbert R-tree implementations (and the paper's
   Theorem 3 construction, whose grid is far wider than tall) assume:
   per-axis normalization would silently reshape the data. *)
let square_spans world =
  let w = Rect.width world and h = Rect.height world in
  let side = Float.max (Float.max w h) 1e-9 in
  let xlo = Rect.xmin world and ylo = Rect.ymin world in
  ((xlo, xlo +. side), (ylo, ylo +. side))

let hilbert2d_key ~world e =
  let (xlo, xhi), (ylo, yhi) = square_spans world in
  let cx, cy = Rect.center (Entry.rect e) in
  let x = Hilbert2d.quantize ~order:order_2d ~lo:xlo ~hi:xhi cx in
  let y = Hilbert2d.quantize ~order:order_2d ~lo:ylo ~hi:yhi cy in
  Hilbert2d.index ~order:order_2d x y

let hilbert4d_key ~world e =
  let (xlo, xhi), (ylo, yhi) = square_spans world in
  let r = Entry.rect e in
  let q ~lo ~hi v = Hilbert_nd.quantize ~order:order_4d ~lo ~hi v in
  let coords =
    [|
      q ~lo:xlo ~hi:xhi (Rect.xmin r);
      q ~lo:ylo ~hi:yhi (Rect.ymin r);
      q ~lo:xlo ~hi:xhi (Rect.xmax r);
      q ~lo:ylo ~hi:yhi (Rect.ymax r);
    |]
  in
  Hilbert_nd.index ~order:order_4d coords

let compare_keyed a b =
  let c = Int.compare a.key b.key in
  if c <> 0 then c else Entry.compare_dim 0 a.entry b.entry

let sort_by_key ~key entries =
  let world = world_of entries in
  let keyed = Array.map (fun e -> { key = key ~world e; entry = e }) entries in
  Array.sort compare_keyed keyed;
  Array.map (fun k -> k.entry) keyed

(* Each loader traces its two phases separately: key-sort (CPU-bound)
   and leaf packing (write-bound), so a trace shows where build I/Os
   accrue. *)
let load_with ~name ~key pool entries =
  Trace.with_span name
    ~args:[ ("n", Json.Int (Array.length entries)) ]
    (fun () ->
      let ordered =
        Trace.with_span "hilbert.sort" (fun () -> sort_by_key ~key entries)
      in
      Trace.with_span "hilbert.pack" (fun () -> Pack.build_from_ordered pool ordered))

let load_h pool entries = load_with ~name:"hilbert.load_h" ~key:hilbert2d_key pool entries
let load_h4 pool entries = load_with ~name:"hilbert.load_h4" ~key:hilbert4d_key pool entries
