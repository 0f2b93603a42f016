(* The paged d-dimensional R-tree: window queries with per-level visit
   counts, mirroring the 2-D Rtree.  Its pages are in [Prt_rtree.Node]'s
   layout for its dimension ([Node_nd]), so its window query is the 2-D
   tree's descent engine ([Rtree.descend_box]) and its audit is
   [Prt_rtree.Audit]'s walk, each run over a plain [Rtree.t] handle on
   the same pool and root. *)

module Hyperrect = Prt_geom.Hyperrect
module Buffer_pool = Prt_storage.Buffer_pool
module Rtree = Prt_rtree.Rtree

type t = { base : Rtree.t; dims : int }

type query_stats = Rtree.query_stats = {
  mutable internal_visited : int;
  mutable leaf_visited : int;
  mutable matched : int;
  mutable skipped_subtrees : int;
  mutable skipped_pages : int list;
  mutable timed_out : bool;
}

let dims t = t.dims
let root t = Rtree.root t.base
let height t = Rtree.height t.base
let count t = Rtree.count t.base
let page_size t = Rtree.page_size t.base
let capacity t = Node_nd.capacity ~page_size:(page_size t) ~dims:t.dims

let read_node t id = Node_nd.decode ~dims:t.dims (Buffer_pool.read (Rtree.pool t.base) id)

let of_root ~pool ~dims ~root ~height ~count =
  { base = Rtree.of_root ~pool ~root ~height ~count; dims }

let create_empty ~dims pool =
  let page_size = Prt_storage.Pager.page_size (Buffer_pool.pager pool) in
  let root = Buffer_pool.alloc pool in
  Buffer_pool.write pool root (Node_nd.encode ~page_size ~dims (Node_nd.make Node_nd.Leaf [||]));
  of_root ~pool ~dims ~root ~height:1 ~count:0

(* Result [i] of the descent, read out of the hits buffer: [2d]
   coordinates, lows then highs. *)
let entry ~dims h i =
  let c = Rtree.hits_coords h and k = 2 * dims * i in
  let lo = Array.init dims (fun a -> Float.Array.get c (k + a))
  and hi = Array.init dims (fun a -> Float.Array.get c (k + dims + a)) in
  Entry_nd.make (Hyperrect.make ~lo ~hi) (Rtree.hits_id h i)

let query t window ~f =
  if Hyperrect.dims window <> t.dims then invalid_arg "Rtree_nd.query: dimension mismatch";
  Rtree.descend_box t.base window ~f:(fun h i -> f (entry ~dims:t.dims h i))

let query_list t window =
  let acc = ref [] in
  let stats = query t window ~f:(fun e -> acc := e :: !acc) in
  (List.rev !acc, stats)

let query_count t window = query t window ~f:(fun _ -> ())

let audit ?check_leaks t = Prt_rtree.Audit.check ?check_leaks ~dims:t.dims t.base
let validate t = Prt_rtree.Audit.validate ~dims:t.dims t.base
