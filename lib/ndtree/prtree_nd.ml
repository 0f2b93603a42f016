(* The d-dimensional PR-tree (Theorem 2): staged bottom-up exactly like
   the planar case, by the same loop ([Prt_prtree.Prtree.stages]) on 2d
   columns — each level is the set of leaves of a d-dimensional
   pseudo-PR-tree built on the previous level's bounding boxes, every
   page written straight from the columns through [Node]'s offsets for
   d. Window queries cost O((N/B)^(1-1/d) + T/B) I/Os. *)

module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

let load ~dims pool entries =
  Trace.with_span "prtree_nd.load"
    ~args:[ ("n", Json.Int (Array.length entries)); ("dims", Json.Int dims) ]
  @@ fun () ->
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  if Node_nd.capacity ~page_size ~dims < 2 then
    invalid_arg "Prtree_nd.load: page too small for this dimensionality";
  let count = Array.length entries in
  if count = 0 then Rtree_nd.create_empty ~dims pool
  else
    let root, height =
      Prt_prtree.Prtree.stages ~span:"prtree_nd" ~dims pool (Pseudo_nd.columns ~dims entries)
    in
    Rtree_nd.of_root ~pool ~dims ~root ~height ~count
