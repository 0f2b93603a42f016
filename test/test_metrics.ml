(* Metrics tests: consistency with validation counts, zero overlap for
   disjoint tilings, and the PR-vs-random ordering sanity check. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Metrics = Prt_rtree.Metrics
module Audit = Prt_rtree.Audit

let test_counts_match_validate () =
  let entries = Helpers.random_entries ~n:500 ~seed:1 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let s = Audit.validate tree in
  let m = Metrics.analyze tree in
  Alcotest.(check int) "height" (Rtree.height tree) m.Metrics.height;
  Alcotest.(check int) "levels" (Rtree.height tree) (List.length m.Metrics.levels);
  let total_nodes = List.fold_left (fun acc l -> acc + l.Metrics.nodes) 0 m.Metrics.levels in
  Alcotest.(check int) "nodes" s.Audit.nodes total_nodes;
  let leaf = List.nth m.Metrics.levels (m.Metrics.height - 1) in
  Alcotest.(check int) "leaf nodes" s.Audit.leaves leaf.Metrics.nodes;
  Alcotest.(check int) "leaf entries" 500 leaf.Metrics.entries

let test_disjoint_tiling_zero_overlap () =
  (* A perfect grid of disjoint tiles packed in row-major order: leaves
     are contiguous runs, so sibling overlap is 0 at the leaf level. *)
  let side = Prt_rtree.Node.capacity ~page_size:Helpers.small_page_size in
  let entries =
    Array.init (side * side) (fun i ->
        let x = float_of_int (i mod side) and y = float_of_int (i / side) in
        Entry.make (Rect.make ~xmin:x ~ymin:y ~xmax:(x +. 0.9) ~ymax:(y +. 0.9)) i)
  in
  let tree = Prt_rtree.Pack.build_from_ordered (Helpers.small_pool ()) entries in
  let m = Metrics.analyze tree in
  Alcotest.(check (float 1e-12)) "zero leaf overlap" 0.0 m.Metrics.leaf_overlap;
  Alcotest.(check bool) "dead space small" true (m.Metrics.dead_space >= 0.0)

let test_pr_tighter_than_random_order () =
  let entries = Helpers.random_entries ~n:1500 ~seed:2 in
  let random_tree = Prt_rtree.Pack.build_from_ordered (Helpers.small_pool ()) entries in
  let pr_tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let mr = Metrics.analyze random_tree and mp = Metrics.analyze pr_tree in
  Alcotest.(check bool)
    (Printf.sprintf "PR leaf area %.1f < random %.1f" mp.Metrics.leaf_area mr.Metrics.leaf_area)
    true
    (mp.Metrics.leaf_area < mr.Metrics.leaf_area);
  Alcotest.(check bool) "PR leaf overlap smaller" true
    (mp.Metrics.leaf_overlap < mr.Metrics.leaf_overlap)

let test_pp_renders () =
  let entries = Helpers.random_entries ~n:100 ~seed:3 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let out = Format.asprintf "%a" Metrics.pp (Metrics.analyze tree) in
  Alcotest.(check bool) "non-empty" true (String.length out > 20)

let suite =
  [
    Alcotest.test_case "counts match validate" `Quick test_counts_match_validate;
    Alcotest.test_case "disjoint tiling has zero overlap" `Quick test_disjoint_tiling_zero_overlap;
    Alcotest.test_case "PR tighter than random packing" `Quick test_pr_tighter_than_random_order;
    Alcotest.test_case "pp renders" `Quick test_pp_renders;
  ]
