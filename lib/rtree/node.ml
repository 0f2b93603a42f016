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
   rectangle in [Rect.compare] order, then the id).  [encode_columns],
   through which every page is written, enforces it, so no writer
   decides the bytes of a page, and a query's results come out in page
   order, not in build order.  The descent kernels in
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

(* --- nodes held as columns ---

   Every page is written from columns — the 2d coordinate columns in
   the layout's order (lo_0 .. lo_{d-1}, hi_0 .. hi_{d-1}) and an int
   array of ids — and read back into them.  The PR-tree's staged loader
   holds each level as columns and writes its pages straight from them;
   [encode] and [Node_nd.encode] copy a node's entries into columns
   first.  [positions] picks a page's entries out of the columns.  The page
   order on columns is [page_compare]'s: ascending lo_0 with NaN last,
   equal lo_0s ordered by every column in turn, then the id.  It is
   decided here once, by [compare_slots]: the sort, the encoder's check
   and the audit's all call it. *)

let rec column_tie cols ids k x y =
  if k = Array.length cols then Int.compare ids.(x) ids.(y)
  else
    let col = Array.unsafe_get cols k in
    let r = Float.compare (Float.Array.get col x) (Float.Array.get col y) in
    if r <> 0 then r else column_tie cols ids (k + 1) x y

(* [lo0] is [cols.(0)], hoisted out of the sort's loops. *)
let[@inline] compare_slots cols ids lo0 x y =
  let a = Float.Array.get lo0 x and b = Float.Array.get lo0 y in
  if a < b then -1
  else if a > b then 1
  else if a = b || (a <> a && b <> b) then column_tie cols ids 0 x y
  else if a <> a then 1
  else -1

(* Merge sort of [positions.(lo .. hi - 1)] through [scratch]: runs of
   up to eight by insertion, and a merge only where two sorted halves
   overlap.  It makes about half a heapsort's comparisons, each a
   branch no predictor can learn, and allocates nothing. *)
let rec merge_sort cols ids lo0 positions scratch lo hi =
  if hi - lo <= 8 then
    for i = lo + 1 to hi - 1 do
      let x = positions.(i) in
      let j = ref (i - 1) in
      while !j >= lo && compare_slots cols ids lo0 positions.(!j) x > 0 do
        positions.(!j + 1) <- positions.(!j);
        decr j
      done;
      positions.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort cols ids lo0 positions scratch lo mid;
    merge_sort cols ids lo0 positions scratch mid hi;
    if compare_slots cols ids lo0 positions.(mid - 1) positions.(mid) > 0 then begin
      Array.blit positions lo scratch lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if
          !j >= hi
          || (!i < mid && compare_slots cols ids lo0 scratch.(!i) scratch.(!j) <= 0)
        then begin
          positions.(k) <- scratch.(!i);
          incr i
        end
        else begin
          positions.(k) <- scratch.(!j);
          incr j
        end
      done
    end
  end

let column_page_compare cols ids x y = compare_slots cols ids cols.(0) x y

let sort_columns cols ids positions ~scratch n =
  if n > Array.length positions || n > Array.length scratch then
    invalid_arg "Node.sort_columns: n exceeds the positions or the scratch";
  merge_sort cols ids cols.(0) positions scratch 0 n

let encode_columns buf ~dims kind cols ids positions n =
  let page_size = Bytes.length buf in
  if Array.length cols <> 2 * dims then invalid_arg "Node.encode_columns: expected 2d columns";
  if n > capacity_nd ~page_size ~dims then
    invalid_arg "Node.encode_columns: node exceeds page capacity";
  let lo0 = cols.(0) in
  for i = 1 to n - 1 do
    if compare_slots cols ids lo0 positions.(i - 1) positions.(i) > 0 then
      invalid_arg "Node.encode_columns: entries not in page order"
  done;
  Bytes.fill buf 0 page_size '\000';
  for k = 0 to (2 * dims) - 1 do
    let col = cols.(k) and base = column_offset ~page_size ~dims k 0 in
    for i = 0 to n - 1 do
      (* [Bytes] and [Int64] are the standard library's, inlined: a
         [Page.set_f64] call would box each float. *)
      let x = Float.Array.get col positions.(i) in
      Bytes.set_int64_le buf (base + (8 * i)) (Int64.bits_of_float x)
    done
  done;
  let base = id_offset_nd ~page_size ~dims 0 in
  for i = 0 to n - 1 do
    Page.set_i32 buf (base + (4 * i)) ids.(positions.(i))
  done;
  Page.set_u8 buf (kind_offset_nd ~page_size ~dims) (match kind with Leaf -> 0 | Internal -> 1);
  Page.set_u16 buf (count_offset_nd ~page_size ~dims) n

(* A fresh page for the [n] entries in slots [0 .. n - 1] of the
   columns, put in page order first: how a writer that holds its
   entries in no particular order encodes them. *)
let page_of_columns ~page_size ~dims kind cols ids n =
  let positions = Array.init n Fun.id and scratch = Array.make n 0 in
  sort_columns cols ids positions ~scratch n;
  let buf = Bytes.create page_size in
  encode_columns buf ~dims kind cols ids positions n;
  buf

(* The entries copied into columns, whose positions [page_of_columns]
   sorts: the node's own array is never reordered ([Dynamic] updates
   the arrays it decoded in place). *)
let encode ~page_size t =
  let n = length t in
  let cols = Array.init 4 (fun _ -> Float.Array.create n) and ids = Array.make n 0 in
  for i = 0 to n - 1 do
    (* Fields, not accessors, for the reason [page_compare] gives. *)
    let e = t.entries.(i) in
    let r = e.Entry.rect in
    Float.Array.set cols.(0) i r.Rect.xmin;
    Float.Array.set cols.(1) i r.Rect.ymin;
    Float.Array.set cols.(2) i r.Rect.xmax;
    Float.Array.set cols.(3) i r.Rect.ymax;
    ids.(i) <- e.Entry.id
  done;
  page_of_columns ~page_size ~dims:2 t.kind cols ids n

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

(* The one checked reader: a page of [dims]-dimensional entries into
   its kind, its columns and its ids, or the reason it is not a node
   page — a bad kind byte, a count past the capacity, an inverted or
   NaN box (lo_k <= hi_k fails). *)
let read_columns ~dims buf =
  let page_size = Bytes.length buf in
  let cap = capacity_nd ~page_size ~dims in
  let byte = Page.get_u8 buf (kind_offset_nd ~page_size ~dims)
  and n = Page.get_u16 buf (count_offset_nd ~page_size ~dims) in
  if byte > 1 then Error (Printf.sprintf "bad node kind %d" byte)
  else if n > cap then Error (Printf.sprintf "count %d exceeds capacity %d" n cap)
  else begin
    let cols =
      Array.init (2 * dims) (fun k ->
          let col = Float.Array.create n and base = column_offset ~page_size ~dims k 0 in
          for i = 0 to n - 1 do
            Float.Array.set col i (Int64.float_of_bits (Bytes.get_int64_le buf (base + (8 * i))))
          done;
          col)
    and ids = Array.init n (fun i -> Page.get_i32 buf (id_offset_nd ~page_size ~dims i)) in
    let rec inverted i k =
      if i = n then None
      else if k = dims then inverted (i + 1) 0
      else if Float.Array.get cols.(k) i <= Float.Array.get cols.(dims + k) i then
        inverted i (k + 1)
      else Some i
    in
    match inverted 0 0 with
    | Some i -> Error (Printf.sprintf "entry %d has an inverted or NaN box" i)
    | None -> Ok ((if byte = 0 then Leaf else Internal), cols, ids)
  end

let decode buf =
  match read_columns ~dims:2 buf with
  | Error reason -> invalid_arg ("Node.decode: " ^ reason)
  | Ok (kind, cols, ids) ->
      let entries =
        Array.init (Array.length ids) (fun i ->
            let c k = Float.Array.get cols.(k) i in
            Entry.make (Rect.make ~xmin:(c 0) ~ymin:(c 1) ~xmax:(c 2) ~ymax:(c 3)) ids.(i))
      in
      { kind; entries }

module View = Prt_storage.View

let map_kind m ~page_size ~base =
  kind_of_byte "map_kind" (View.get_u8 m (base + kind_offset ~page_size))

let map_length m ~page_size ~base = View.get_u16 m (base + count_offset ~page_size)
