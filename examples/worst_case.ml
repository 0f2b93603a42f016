(* The adversarial dataset of Theorem 3, live: a query that returns
   nothing forces the classic bulk-loaded R-trees to read every leaf,
   while the PR-tree reads O(sqrt(N/B)).

   Run with: dune exec examples/worst_case.exe *)

open Prt

let () =
  let b = Node.capacity ~page_size:Pager.default_page_size in
  (* 512 columns x 113 rows of points, each column vertically shifted by
     a bit-reversal offset — innocuous to the eye, fatal to
     center-sorting and greedy-split heuristics. *)
  let wc = Datasets.worst_case ~columns_log2:9 ~b in
  let entries = wc.Datasets.entries in
  Printf.printf "dataset: %d points in a %d x %d shifted grid\n" (Array.length entries)
    wc.Datasets.columns wc.Datasets.rows;

  (* The killer query: a horizontal line that threads between all the
     points. It intersects nothing... *)
  let query = Datasets.worst_case_query wc ~row:(b / 2) in
  Printf.printf "query: horizontal line at y = %.8f (zero output guaranteed)\n\n"
    (Rect.ymin query);

  let run name load =
    let pool = memory_pool () in
    let tree = load pool entries in
    let total_leaves = (Audit.validate tree).Audit.leaves in
    let stats = Rtree.query_count tree query in
    assert (stats.Rtree.matched = 0);
    Printf.printf "  %-4s reads %4d of %4d leaves (%5.1f%%) for 0 results\n" name
      stats.Rtree.leaf_visited total_leaves
      (100.0 *. float_of_int stats.Rtree.leaf_visited /. float_of_int total_leaves)
  in
  run "H" Bulk.Hilbert.load_h;
  run "H4" Bulk.Hilbert.load_h4;
  run "TGS" Bulk.Tgs.load;
  run "STR" Bulk.Str.load;
  run "PR" Prtree.load;
  let sqrt_bound = sqrt (float_of_int (Array.length entries) /. float_of_int b) in
  Printf.printf "\nsqrt(N/B) = %.0f: the PR-tree's guarantee, and nobody else's.\n" sqrt_bound
