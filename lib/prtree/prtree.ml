(* The Priority R-tree (Section 2.2 of the paper) — the repository's
   headline structure.

   The PR-tree is a real R-tree (degree Theta(B), all leaves on one
   level) assembled bottom-up in stages: stage 0 builds a pseudo-PR-tree
   on the N input rectangles and keeps only its leaves, which become the
   R-tree's leaf level; stage i builds a pseudo-PR-tree on the bounding
   boxes of level i-1 and keeps its leaves as level i.  The stages stop
   when one node's worth of boxes remains, which becomes the root.
   Theorem 1: windows queries on the result take O(sqrt(N/B) + T/B)
   I/Os — worst-case optimal.

   A level is held as columns ({!Pseudo.columns}) from start to end:
   the kernel selects on them in place, each leaf's page is encoded
   straight from them in page order, and the leaves' boxes and page ids
   are the next level's columns.  No entry record is made.  The loop is
   the same for every dimension d: the d-dimensional tree
   ([Prt_ndtree.Prtree_nd]) runs it on 2d columns. *)

module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

(* Write one level's pages, leaf by leaf from the columns in page order
   ([ends] from {!Pseudo.leaf_ends}); each leaf's bounding box and page
   id become its slot in the next level's columns.  Each page is a fresh
   buffer, which the pool keeps. *)
let write_level pool ~dims ~kind (c : Pseudo.columns) ends =
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let m = Array.length ends in
  let cols = Array.init (2 * dims) (fun _ -> Float.Array.create m) and ids = Array.make m 0 in
  let cap = Node.capacity_nd ~page_size ~dims in
  let order = Array.make cap 0 and scratch = Array.make cap 0 in
  let bounds = Float.Array.create (2 * dims) in
  let lo = ref 0 in
  for i = 0 to m - 1 do
    let hi = ends.(i) in
    ignore (Pseudo.page_leaf c ~lo:!lo ~hi ~order ~scratch ~bounds);
    let page = Bytes.create page_size in
    Node.encode_columns page ~dims kind c.cols c.ids order (hi - !lo);
    let id = Buffer_pool.alloc pool in
    Buffer_pool.write pool id page;
    for k = 0 to (2 * dims) - 1 do
      Float.Array.set cols.(k) i (Float.Array.get bounds k)
    done;
    ids.(i) <- id;
    lo := hi
  done;
  { Pseudo.cols; ids; origin = [||]; len = m }

let stages ~span ~dims ?priority_size pool (c : Pseudo.columns) =
  if c.len <= 0 then invalid_arg "Prtree.stages: no entries";
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let cap = Node.capacity_nd ~page_size ~dims in
  (* [c] holds the level under construction; [kind] is Leaf for stage
     0 and Internal afterwards.  The root is a level of one page. *)
  let rec stage (c : Pseudo.columns) ~kind ~height =
    if c.len <= cap then ((write_level pool ~dims ~kind c [| c.len |]).ids.(0), height)
    else begin
      Trace.with_span (span ^ ".stage")
        ~args:[ ("level", Json.Int (height - 1)); ("n", Json.Int c.len) ]
        (fun () ->
          (* The kernel runs to the end before any page is written. *)
          let ends =
            Trace.with_span (span ^ ".pseudo") (fun () ->
                Pseudo.leaf_ends ~b:cap ?priority_size c)
          in
          Trace.with_span (span ^ ".write_level") (fun () -> write_level pool ~dims ~kind c ends))
      |> fun level -> stage level ~kind:Node.Internal ~height:(height + 1)
    end
  in
  stage c ~kind:Node.Leaf ~height:1

let load_columns ?priority_size pool (c : Pseudo.columns) =
  Trace.with_span "prtree.load" ~args:[ ("n", Json.Int c.len) ] @@ fun () ->
  if c.len = 0 then Rtree.create_empty pool
  else
    let root, height = stages ~span:"prtree" ~dims:2 ?priority_size pool c in
    Rtree.of_root ~pool ~root ~height ~count:c.len

let load ?priority_size pool entries =
  load_columns ?priority_size pool (Pseudo.columns Pseudo.planar entries)
