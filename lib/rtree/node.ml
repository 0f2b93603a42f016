(* On-page R-tree node format (format v4), for entries of any
   dimension d.

   A node page of capacity c holds, from byte 0 of the payload:

     [0, 8c)                 c lo_0      float64 LE
     ...                     one column per coordinate: lo_0 .. lo_{d-1},
                             then hi_0 .. hi_{d-1}
     [8(2d-1)c, 16dc)        c hi_{d-1}
     [16dc, (16d+4)c)        c ids       int32 LE (child page id or data id)
     (16d+4)c                kind        u8 (0 leaf, 1 internal)
     [(16d+4)c+1, +3)        count       u16 LE

   all within the page payload (the storage layer reserves a 16-byte
   integrity trailer at the end of every page).  Entry [i] is the [i]-th
   slot of every column.  An entry takes 16d + 4 bytes, so the capacity
   is (payload - 3) / (16d + 4).  This module's own entries are 2-D
   ({!Entry}: the columns are xmin, ymin, xmax, ymax, and the capacity
   with the default 4 KB page is (4096 - 16 - 3) / 36 = 113 entries, the
   paper's fanout); [Prt_ndtree.Node_nd] writes the same layout for the
   d-dimensional tree, and at d = 2 its pages are this module's, byte for
   byte.

   Columns put every coordinate on an 8-byte boundary of the page, so
   the mapped descent kernels in [Rtree] load it inline from a float64
   view of the file.  The 3-byte header trails the columns because a
   leading one would push them off that boundary, and padding it to 8
   bytes would cost a slot at small page sizes (128-byte pages would
   hold 2 entries instead of 3).

   Format v4 adds one invariant to v3's layout: the entries of every
   page are in page order — ascending first coordinate (xmin, lo_0), NaN
   last, ties broken by the rest of [Entry.compare_dim 0]'s order (the
   rectangle in [Rect.compare] order, then the id).  [encode] enforces
   it, so no writer decides the bytes of a page, and a query's results
   come out in page order, not in build order.  The descent kernels in
   [Rtree] rely on it: an entry whose xmin exceeds the query's bound
   cannot pass, and neither can any entry after it. *)

module Rect = Prt_geom.Rect
module Page = Prt_storage.Page

type kind = Leaf | Internal

type t = { kind : kind; entries : Entry.t array }

let header_size = 3

let capacity_nd ~page_size ~dims = (Page.payload_size page_size - header_size) / ((16 * dims) + 4)
let column_offset ~page_size ~dims k i = 8 * ((k * capacity_nd ~page_size ~dims) + i)
let id_offset_nd ~page_size ~dims i = (16 * dims * capacity_nd ~page_size ~dims) + (4 * i)
let kind_offset_nd ~page_size ~dims = ((16 * dims) + 4) * capacity_nd ~page_size ~dims
let count_offset_nd ~page_size ~dims = kind_offset_nd ~page_size ~dims + 1

(* The 2-D page: the offsets above at d = 2, written with the entry
   size as a constant so that the mapped kernels' per-node header reads
   divide by a constant. *)
let capacity ~page_size = (Page.payload_size page_size - header_size) / Entry.size

type coord = Xmin | Ymin | Xmax | Ymax

let column = function Xmin -> 0 | Ymin -> 1 | Xmax -> 2 | Ymax -> 3

let coord_offset ~page_size i c = 8 * ((column c * capacity ~page_size) + i)
let id_offset ~page_size i = (32 * capacity ~page_size) + (4 * i)
let kind_offset ~page_size = 36 * capacity ~page_size
let count_offset ~page_size = kind_offset ~page_size + 1

let kind t = t.kind
let entries t = t.entries
let length t = Array.length t.entries

let make kind entries =
  if Array.length entries > 0xFFFF then invalid_arg "Node.make: too many entries";
  { kind; entries }

let mbr t =
  if length t = 0 then invalid_arg "Node.mbr: empty node";
  Rect.union_map ~f:Entry.rect t.entries

(* Page order.  [Float.compare] puts NaN first; here it goes last, so
   that [xmin <= bound] holds on a prefix of the page whatever the
   bound.  Equal [xmin]s (NaN against NaN included) fall through to
   [Entry.compare_dim 0], whose first comparison then returns 0. *)
let page_compare a b =
  (* Fields, not the [Rect.xmin] accessor: a cross-module call would box
     the float it returns. *)
  let x = a.Entry.rect.Rect.xmin and y = b.Entry.rect.Rect.xmin in
  if x < y then -1
  else if x > y then 1
  else if x = y || (x <> x && y <> y) then Entry.compare_dim 0 a b
  else if x <> x then 1
  else -1

let in_page_order entries =
  let rec from i =
    i >= Array.length entries || (page_compare entries.(i - 1) entries.(i) <= 0 && from (i + 1))
  in
  from 1

let encode ~page_size t =
  let cap = capacity ~page_size in
  if length t > cap then invalid_arg "Node.encode: node exceeds page capacity";
  (* Sort a copy: the caller may go on using its array ([Dynamic]
     updates the arrays it decoded in place). *)
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
      let r = Entry.rect e in
      Page.set_f64 buf (8 * i) (Rect.xmin r);
      Page.set_f64 buf (8 * (cap + i)) (Rect.ymin r);
      Page.set_f64 buf (8 * ((2 * cap) + i)) (Rect.xmax r);
      Page.set_f64 buf (8 * ((3 * cap) + i)) (Rect.ymax r);
      Page.set_i32 buf ((32 * cap) + (4 * i)) (Entry.id e))
    entries;
  Page.set_u8 buf (36 * cap) (match t.kind with Leaf -> 0 | Internal -> 1);
  Page.set_u16 buf ((36 * cap) + 1) (length t);
  buf

(* --- in-place page access ---

   Accessors for an encoded node page, as bytes or inside the mapped
   index file ({!Prt_storage.View}, addressed by the page's absolute
   byte offset [base]).  The descent engine in [Rtree] scans the
   columns itself; these read the header. *)

let kind_of_byte ctx = function
  | 0 -> Leaf
  | 1 -> Internal
  | k -> invalid_arg (Printf.sprintf "Node.%s: bad node kind %d" ctx k)

let page_kind buf =
  kind_of_byte "page_kind" (Page.get_u8 buf (kind_offset ~page_size:(Bytes.length buf)))

let page_length buf = Page.get_u16 buf (count_offset ~page_size:(Bytes.length buf))

let page_kind_nd ~dims buf =
  kind_of_byte "page_kind" (Page.get_u8 buf (kind_offset_nd ~page_size:(Bytes.length buf) ~dims))

let page_length_nd ~dims buf =
  Page.get_u16 buf (count_offset_nd ~page_size:(Bytes.length buf) ~dims)

let page_tail_zero buf =
  let page_size = Bytes.length buf in
  let rec zero i = i >= Page.payload_size page_size || (Bytes.get buf i = '\000' && zero (i + 1)) in
  zero (count_offset ~page_size + 2)

let decode buf =
  let page_size = Bytes.length buf in
  let cap = capacity ~page_size in
  let kind = kind_of_byte "decode" (Page.get_u8 buf (kind_offset ~page_size)) in
  let count = page_length buf in
  if count > cap then
    invalid_arg (Printf.sprintf "Node.decode: count %d exceeds capacity %d" count cap);
  let entries =
    Array.init count (fun i ->
        let xmin = Page.get_f64 buf (8 * i)
        and ymin = Page.get_f64 buf (8 * (cap + i))
        and xmax = Page.get_f64 buf (8 * ((2 * cap) + i))
        and ymax = Page.get_f64 buf (8 * ((3 * cap) + i)) in
        Entry.make (Rect.make ~xmin ~ymin ~xmax ~ymax) (Page.get_i32 buf ((32 * cap) + (4 * i))))
  in
  { kind; entries }

module View = Prt_storage.View

let map_kind m ~page_size ~base =
  kind_of_byte "map_kind" (View.get_u8 m (base + kind_offset ~page_size))

let map_length m ~page_size ~base = View.get_u16 m (base + count_offset ~page_size)
