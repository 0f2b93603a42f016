(* The paged d-dimensional R-tree: window queries with per-level visit
   counts and structural validation, mirroring the 2-D Rtree.  Its pages
   are in [Prt_rtree.Node]'s layout for its dimension ([Node_nd]), so
   its window query is the 2-D tree's descent engine
   ([Rtree.descend_box]), run over a plain [Rtree.t] handle on the same
   pool and root. *)

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

let pager t = Rtree.pager t.base
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

type structure = { nodes : int; leaves : int; entries : int; utilization : float }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let validate t =
  let cap = capacity t and height = height t and count = count t in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  let rec visit id depth =
    incr nodes;
    let node =
      match read_node t id with
      | node -> node
      | exception Invalid_argument msg ->
          invalid "decode-error: page %d does not decode (%s)" id msg
    in
    let n = Node_nd.length node in
    if n > cap then invalid "node %d holds %d entries, capacity %d" id n cap;
    if not (Node_nd.in_page_order (Node_nd.entries node)) then
      invalid "unsorted-node: node %d's entries are not in page order" id;
    match Node_nd.kind node with
    | Node_nd.Leaf ->
        if depth <> height then invalid "leaf %d at depth %d but tree height is %d" id depth height;
        incr leaves;
        entries := !entries + n;
        if n = 0 && count > 0 then invalid "empty leaf %d in non-empty tree" id;
        if n = 0 then None else Some (Node_nd.mbr node)
    | Node_nd.Internal ->
        if depth >= height then
          invalid "internal node %d at depth %d but tree height is %d" id depth height;
        if n = 0 then invalid "empty internal node %d" id;
        Array.iter
          (fun e ->
            match visit (Entry_nd.id e) (depth + 1) with
            | Some child_mbr ->
                if not (Hyperrect.equal child_mbr (Entry_nd.box e)) then
                  invalid "node %d records a stale MBR for child %d" id (Entry_nd.id e)
            | None -> invalid "node %d points at empty subtree %d" id (Entry_nd.id e))
          (Node_nd.entries node);
        Some (Node_nd.mbr node)
  in
  ignore (visit (root t) 1);
  if !entries <> count then
    invalid "tree metadata says %d entries but leaves hold %d" count !entries;
  {
    nodes = !nodes;
    leaves = !leaves;
    entries = !entries;
    utilization =
      (if !leaves = 0 then 0.0 else float_of_int !entries /. float_of_int (!leaves * cap));
  }
