(* The d-dimensional PR-tree (Theorem 2): staged bottom-up exactly like
   the planar case — each level is the set of leaves of a d-dimensional
   pseudo-PR-tree built on the previous level's bounding boxes, written
   as the kernel hands them out ([Pseudo_nd.build_leaves]), each with
   its bounding box and with no pseudo-tree in between. Window queries
   cost O((N/B)^(1-1/d) + T/B) I/Os. *)

module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

let load ~dims pool entries =
  Trace.with_span "prtree_nd.load"
    ~args:[ ("n", Json.Int (Array.length entries)); ("dims", Json.Int dims) ]
  @@ fun () ->
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let cap = Node_nd.capacity ~page_size ~dims in
  if cap < 2 then invalid_arg "Prtree_nd.load: page too small for this dimensionality";
  let count = Array.length entries in
  if count = 0 then Rtree_nd.create_empty ~dims pool
  else begin
    let write kind node_entries =
      let id = Buffer_pool.alloc pool in
      Buffer_pool.write pool id (Node_nd.encode ~page_size ~dims (Node_nd.make kind node_entries));
      id
    in
    let rec stage current ~kind ~height =
      if Array.length current <= cap then
        Rtree_nd.of_root ~pool ~dims ~root:(write kind current) ~height ~count
      else begin
        let level =
          Trace.with_span "prtree_nd.stage"
            ~args:[ ("level", Json.Int (height - 1)); ("n", Json.Int (Array.length current)) ]
            (fun () ->
              List.rev
                (List.rev_map
                   (fun (mbr, leaf) -> Entry_nd.make mbr (write kind leaf))
                   (Pseudo_nd.build_leaves ~b:cap ~dims current)))
        in
        stage (Array.of_list level) ~kind:Node_nd.Internal ~height:(height + 1)
      end
    in
    stage entries ~kind:Node_nd.Leaf ~height:1
  end
