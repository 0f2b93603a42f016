(* Writing nodes, shared by every loader that holds entries.

   [write_node] is the one place a loader turns entries into a page.
   On top of it, bottom-up level packing: given entries already arranged
   in the desired leaf order, pack them into full leaves and build each
   upper level by packing the previous level's bounding boxes in the
   same order — the construction used by the packed Hilbert R-trees.
   Only the last node of a level may be underfull, so space utilization
   is near 100%, matching the paper's experiments. *)

module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager

let write_node pool ~kind entries =
  let node = Node.make kind entries in
  let id = Buffer_pool.alloc pool in
  Buffer_pool.write pool id
    (Node.encode ~page_size:(Pager.page_size (Buffer_pool.pager pool)) node);
  Entry.make (Node.mbr node) id

(* Pack an ordered entry array into nodes of the given kind; returns the
   parent-level entries (node MBR + node page id), in order. *)
let pack_level pool ~kind entries =
  let cap = Node.capacity ~page_size:(Pager.page_size (Buffer_pool.pager pool)) in
  let n = Array.length entries in
  Array.init
    ((n + cap - 1) / cap)
    (fun i ->
      let lo = i * cap in
      write_node pool ~kind (Array.sub entries lo (min n (lo + cap) - lo)))

let pack_up pool ~order ~count leaves =
  let rec up level height =
    if Array.length level = 1 then (Entry.id level.(0), height)
    else begin
      order level;
      up (pack_level pool ~kind:Node.Internal level) (height + 1)
    end
  in
  let root, height = up leaves 1 in
  Rtree.of_root ~pool ~root ~height ~count

let build_from_ordered pool entries =
  if Array.length entries = 0 then Rtree.create_empty pool
  else
    pack_up pool ~order:ignore ~count:(Array.length entries)
      (pack_level pool ~kind:Node.Leaf entries)

let build_levelwise pool ~order entries =
  if Array.length entries = 0 then Rtree.create_empty pool
  else begin
    let first = Array.copy entries in
    order first;
    pack_up pool ~order ~count:(Array.length entries) (pack_level pool ~kind:Node.Leaf first)
  end
