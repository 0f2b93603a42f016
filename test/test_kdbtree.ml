(* kdB-tree tests: exact queries on point data, rejection of rectangles
   with extent, and the optimality comparison with the PR-tree on the
   Theorem 3 grid (both must stay at O(sqrt(N/B)) — the paper's
   Section 1.1 point about point data). *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Kdbtree = Prt_rtree.Kdbtree
module Datasets = Prt_workloads.Datasets
module Audit = Prt_rtree.Audit

let test_queries_match_oracle () =
  List.iter
    (fun n ->
      let entries = Datasets.uniform_points ~n ~seed:(n + 1) in
      let pool = Helpers.small_pool () in
      let tree = Kdbtree.load pool entries in
      let s = Helpers.check_structure tree in
      Alcotest.(check int) "entries" n s.Audit.entries;
      Helpers.check_tree_queries ~seed:(n * 11) tree entries)
    [ 0; 1; 14; 100; 800 ]

let test_rejects_extent () =
  let entries = [| Entry.make (Rect.make ~xmin:0.1 ~ymin:0.1 ~xmax:0.2 ~ymax:0.2) 0 |] in
  Alcotest.check_raises "raises Not_points" Kdbtree.Not_points (fun () ->
      ignore (Kdbtree.load (Helpers.small_pool ()) entries))

let test_worst_case_grid_optimal () =
  (* On the Theorem 3 grid both the kdB-tree and the PR-tree must stay
     near sqrt(N/B) for the zero-output line query. *)
  let b = 14 in
  let wc = Datasets.worst_case ~columns_log2:6 ~b in
  let query = Datasets.worst_case_query wc ~row:(b / 2) in
  let bound tree =
    let stats = Rtree.query_count tree query in
    Alcotest.(check int) "zero output" 0 stats.Rtree.matched;
    stats.Rtree.leaf_visited
  in
  let kdb = bound (Kdbtree.load (Helpers.small_pool ()) wc.Datasets.entries) in
  let pr = bound (Prt_prtree.Prtree.load (Helpers.small_pool ()) wc.Datasets.entries) in
  let n = Array.length wc.Datasets.entries in
  let sqrt_nb = sqrt (float_of_int n /. float_of_int b) in
  Alcotest.(check bool)
    (Printf.sprintf "kdb %d and pr %d within 8*sqrt(N/B)=%.0f" kdb pr (8.0 *. sqrt_nb))
    true
    (float_of_int kdb <= 8.0 *. sqrt_nb && float_of_int pr <= 8.0 *. sqrt_nb)

let test_tiling_no_overlap () =
  (* kd cells tile the plane: sibling overlap at the leaf level must be
     (near) zero for points in general position. *)
  let entries = Datasets.uniform_points ~n:1000 ~seed:5 in
  let tree = Kdbtree.load (Helpers.small_pool ()) entries in
  let m = Prt_rtree.Metrics.analyze tree in
  Alcotest.(check bool)
    (Printf.sprintf "leaf overlap %.8f tiny" m.Prt_rtree.Metrics.leaf_overlap)
    true
    (m.Prt_rtree.Metrics.leaf_overlap < 1e-6)

let suite =
  [
    Alcotest.test_case "queries match oracle" `Quick test_queries_match_oracle;
    Alcotest.test_case "rejects rectangles with extent" `Quick test_rejects_extent;
    Alcotest.test_case "worst-case grid optimal" `Quick test_worst_case_grid_optimal;
    Alcotest.test_case "kd cells tile (no overlap)" `Quick test_tiling_no_overlap;
  ]
