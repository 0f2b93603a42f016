(* A bulk-loaded kdB-tree (Robinson 1981): the paged kd-tree the paper
   cites as worst-case optimal for *point* data (Section 1.1, refs
   [21, 17]).  Included as a comparison substrate: on points it matches
   the PR-tree's O(sqrt(N/B) + T/B) guarantee, but it cannot store
   rectangles with extent without replication — which is precisely the
   gap the PR-tree closes (and [load] refuses such input).

   Construction: recursive median splits on the cycling axis down to
   page-sized cells; the cells, in kd order, become the leaf order of a
   packed R-tree (region pages are ordinary internal nodes whose child
   boxes happen to tile the space), so queries, validation and metrics
   reuse the {!Rtree} machinery. *)

module Rect = Prt_geom.Rect
module Select = Prt_util.Select
module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager

exception Not_points

let point_cmp axis a b =
  let c =
    if axis = 0 then Float.compare (Rect.xmin (Entry.rect a)) (Rect.xmin (Entry.rect b))
    else Float.compare (Rect.ymin (Entry.rect a)) (Rect.ymin (Entry.rect b))
  in
  if c <> 0 then c else Entry.compare_dim axis a b

(* Split a copy of [entries] into kd cells: median splits with the axis
   cycling x, y, down to cells of at most [cap] points. Returns the
   cells in kd order; each becomes one leaf page, so sibling leaves tile
   the plane (cells are only ~half full in the worst case — the price of
   the tiling, as in the original kdB-tree). *)
let kd_cells ~cap entries =
  let arr = Array.copy entries in
  let cells = ref [] in
  let rec go lo hi axis =
    if hi - lo <= cap then cells := Array.sub arr lo (hi - lo) :: !cells
    else begin
      let mid = lo + ((hi - lo) / 2) in
      Select.partition_at ~cmp:(point_cmp axis) arr lo hi mid;
      go lo mid (1 - axis);
      go mid hi (1 - axis)
    end
  in
  go 0 (Array.length arr) 0;
  List.rev !cells

let load pool entries =
  Array.iter
    (fun e ->
      let r = Entry.rect e in
      if Rect.width r > 0.0 || Rect.height r > 0.0 then raise Not_points)
    entries;
  let cap = Node.capacity ~page_size:(Pager.page_size (Buffer_pool.pager pool)) in
  if Array.length entries = 0 then Rtree.create_empty pool
  else
    let leaves = List.map (Pack.write_node pool ~kind:Node.Leaf) (kd_cells ~cap entries) in
    (* Upper levels group consecutive kd subtrees: cells come in kd
       order, so sequential packing keeps regions (nearly) disjoint. *)
    Pack.pack_up pool ~order:ignore ~count:(Array.length entries) (Array.of_list leaves)
