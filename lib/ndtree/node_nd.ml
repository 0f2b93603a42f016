(* On-page node codec of the d-dimensional R-tree: Entry_nd records in
   [Prt_rtree.Node]'s layout for dimension d — 2d float64 columns (lo_0
   .. lo_{d-1}, then hi_0 .. hi_{d-1}), the int32 ids, the kind byte and
   the u16 count — kept in page order.  The offsets come from [Node],
   the only description of the layout; the dimensionality is a
   parameter of the tree, not stored per page.  At d = 2 a page is the
   2-D tree's, byte for byte, so the one descent engine in
   [Prt_rtree.Rtree] reads every dimension's pages. *)

module Hyperrect = Prt_geom.Hyperrect
module Node = Prt_rtree.Node

type kind = Node.kind = Leaf | Internal

type t = { kind : kind; entries : Entry_nd.t array }

let capacity ~page_size ~dims = Node.capacity_nd ~page_size ~dims

let make kind entries = { kind; entries }
let kind t = t.kind
let entries t = t.entries
let length t = Array.length t.entries

(* [Node.page_compare] for boxes: ascending lo_0, NaN last, equal lo_0s
   (NaN against NaN included) ordered by [Entry_nd.compare_dim 0].  At
   d = 2 it orders entries as [Node.page_compare] orders their
   rectangles. *)
let page_compare a b =
  let x = Hyperrect.lo (Entry_nd.box a) 0 and y = Hyperrect.lo (Entry_nd.box b) 0 in
  if x < y then -1
  else if x > y then 1
  else if x = y || (x <> x && y <> y) then Entry_nd.compare_dim 0 a b
  else if x <> x then 1
  else -1

let in_page_order entries =
  let rec from i =
    i >= Array.length entries || (page_compare entries.(i - 1) entries.(i) <= 0 && from (i + 1))
  in
  from 1

(* Copied into columns and written by [Node]'s one encoder: the page
   order decides the bytes, as for the 2-D node. *)
let encode ~page_size ~dims t =
  let n = length t in
  let cols = Array.init (2 * dims) (fun _ -> Float.Array.create n) and ids = Array.make n 0 in
  Array.iteri
    (fun i e ->
      let box = Entry_nd.box e in
      if Hyperrect.dims box <> dims then invalid_arg "Node_nd.encode: dimension mismatch";
      for k = 0 to dims - 1 do
        Float.Array.set cols.(k) i (Hyperrect.lo box k);
        Float.Array.set cols.(dims + k) i (Hyperrect.hi box k)
      done;
      ids.(i) <- Entry_nd.id e)
    t.entries;
  Node.page_of_columns ~page_size ~dims t.kind cols ids n

let decode ~dims buf =
  match Node.read_columns ~dims buf with
  | Error reason -> invalid_arg ("Node_nd.decode: " ^ reason)
  | Ok (kind, cols, ids) ->
      let entries =
        Array.init (Array.length ids) (fun i ->
            let lo = Array.init dims (fun k -> Float.Array.get cols.(k) i)
            and hi = Array.init dims (fun k -> Float.Array.get cols.(dims + k) i) in
            Entry_nd.make (Hyperrect.make ~lo ~hi) ids.(i))
      in
      { kind; entries }
