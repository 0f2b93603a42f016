(* On-page node codec of the d-dimensional R-tree: Entry_nd records in
   [Prt_rtree.Node]'s layout for dimension d — 2d float64 columns (lo_0
   .. lo_{d-1}, then hi_0 .. hi_{d-1}), the int32 ids, the kind byte and
   the u16 count — kept in page order.  The offsets come from [Node],
   the only description of the layout; the dimensionality is a
   parameter of the tree, not stored per page.  At d = 2 a page is the
   2-D tree's, byte for byte, so the one descent engine in
   [Prt_rtree.Rtree] reads every dimension's pages. *)

module Hyperrect = Prt_geom.Hyperrect
module Page = Prt_storage.Page
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

let encode ~page_size ~dims t =
  if length t > capacity ~page_size ~dims then
    invalid_arg "Node_nd.encode: node exceeds page capacity";
  (* As [Node.encode]: sort a copy, and only when the order fails. *)
  let entries =
    if in_page_order t.entries then t.entries
    else begin
      let a = Array.copy t.entries in
      Array.stable_sort page_compare a;
      a
    end
  in
  let buf = Page.create page_size in
  Array.iteri
    (fun i e ->
      let box = Entry_nd.box e in
      if Hyperrect.dims box <> dims then invalid_arg "Node_nd.encode: dimension mismatch";
      for k = 0 to dims - 1 do
        Page.set_f64 buf (Node.column_offset ~page_size ~dims k i) (Hyperrect.lo box k);
        Page.set_f64 buf (Node.column_offset ~page_size ~dims (dims + k) i) (Hyperrect.hi box k)
      done;
      Page.set_i32 buf (Node.id_offset_nd ~page_size ~dims i) (Entry_nd.id e))
    entries;
  Page.set_u8 buf (Node.kind_offset_nd ~page_size ~dims)
    (match t.kind with Leaf -> 0 | Internal -> 1);
  Page.set_u16 buf (Node.count_offset_nd ~page_size ~dims) (length t);
  buf

let decode ~dims buf =
  let page_size = Bytes.length buf in
  let cap = capacity ~page_size ~dims in
  let kind = Node.page_kind_nd ~dims buf in
  let count = Node.page_length_nd ~dims buf in
  if count > cap then
    invalid_arg (Printf.sprintf "Node_nd.decode: count %d exceeds capacity %d" count cap);
  let column k i = Page.get_f64 buf (Node.column_offset ~page_size ~dims k i) in
  let entries =
    Array.init count (fun i ->
        let lo = Array.init dims (fun k -> column k i)
        and hi = Array.init dims (fun k -> column (dims + k) i) in
        Entry_nd.make (Hyperrect.make ~lo ~hi)
          (Page.get_i32 buf (Node.id_offset_nd ~page_size ~dims i)))
  in
  { kind; entries }
