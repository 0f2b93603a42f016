(* Query forms beyond the plain window query: point stabbing,
   containment / enclosure variants, and an early-exit existence test.
   Each is a policy for the one descent engine in [Rtree], on the page
   source a plain query would use, so they report the same per-level
   visit statistics as [Rtree.query]. *)

module Rect = Prt_geom.Rect

let run tree form window ~f =
  Rtree.descend_iter tree (Rtree.page_source tree None) (Rtree.policy form) None window ~f

let to_list run =
  let acc = ref [] in
  let stats = run ~f:(fun e -> acc := e :: !acc) in
  (List.rev !acc, stats)

(* Entries whose rectangle contains the point: covering the degenerate
   window at the point. *)
let stabbing tree ~x ~y ~f = run tree Rtree.Covering (Rect.point x y) ~f
let stabbing_list tree ~x ~y = to_list (stabbing tree ~x ~y)

(* Entries fully enclosed by the window.  The descent follows
   intersection: an enclosed entry may sit in a node whose box pokes
   out of the window. *)
let enclosed tree window ~f = run tree Rtree.Enclosed window ~f
let enclosed_list tree window = to_list (enclosed tree window)

(* Entries whose rectangle fully covers the window.  Only nodes whose
   box covers the window can hold one. *)
let covering tree window ~f = run tree Rtree.Covering window ~f
let covering_list tree window = to_list (covering tree window)

(* Does anything intersect the window?  Stops at the first hit. *)
let exists tree window =
  let pol = { (Rtree.policy Rtree.Window) with first_hit = true } in
  (Rtree.descend_iter tree (Rtree.page_source tree None) pol None window ~f:ignore).Rtree.matched
  > 0
