(* The Priority R-tree (Section 2.2 of the paper) — the repository's
   headline structure.

   The PR-tree is a real R-tree (degree Theta(B), all leaves on one
   level) assembled bottom-up in stages: stage 0 builds a pseudo-PR-tree
   on the N input rectangles and keeps only its leaves, which become the
   R-tree's leaf level; stage i builds a pseudo-PR-tree on the bounding
   boxes of level i-1 and keeps its leaves as level i.  The stages stop
   when one node's worth of boxes remains, which becomes the root.
   Theorem 1: windows queries on the result take O(sqrt(N/B) + T/B)
   I/Os — worst-case optimal. *)

module Rect = Prt_geom.Rect
module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

(* Write one level's nodes; each leaf comes from the kernel in page
   order and with its bounding box, which becomes its parent entry. *)
let write_level pool ~kind leaves =
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  List.rev
    (List.rev_map
       (fun (mbr, entries) ->
         let id = Buffer_pool.alloc pool in
         Buffer_pool.write pool id (Node.encode ~page_size (Node.make kind entries));
         Entry.make mbr id)
       leaves)

let load ?priority_size pool entries =
  Trace.with_span "prtree.load"
    ~args:[ ("n", Json.Int (Array.length entries)) ]
  @@ fun () ->
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let cap = Node.capacity ~page_size in
  let count = Array.length entries in
  if count = 0 then Rtree.create_empty pool
  else begin
    (* [current] holds the entries of the level under construction;
       [kind] is Leaf for stage 0 and Internal afterwards. *)
    let rec stage current ~kind ~height =
      if Array.length current <= cap then begin
        let node = Node.make kind current in
        let id = Buffer_pool.alloc pool in
        Buffer_pool.write pool id (Node.encode ~page_size node);
        Rtree.of_root ~pool ~root:id ~height ~count
      end
      else begin
        Trace.with_span "prtree.stage"
          ~args:[ ("level", Json.Int (height - 1)); ("n", Json.Int (Array.length current)) ]
          (fun () ->
            let leaves =
              Trace.with_span "prtree.pseudo" (fun () ->
                  Pseudo.build_leaves ~b:cap ?priority_size current)
            in
            Trace.with_span "prtree.write_level" (fun () -> write_level pool ~kind leaves))
        |> fun level -> stage (Array.of_list level) ~kind:Node.Internal ~height:(height + 1)
      end
    in
    stage entries ~kind:Node.Leaf ~height:1
  end
