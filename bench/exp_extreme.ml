(* The extreme-data experiments: Table 1 (CLUSTER), the Theorem 3
   lower-bound construction, and an empirical check of the
   O(sqrt(N/B) + T/B) guarantee (Lemma 2 / Theorem 1). *)

module Table = Prt_util.Table
module Rect = Prt_geom.Rect
module Rtree = Prt_rtree.Rtree
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries

open Common

(* Table 1: long skinny queries through the CLUSTER dataset.
   Paper (10M points, 10_000 clusters): H 32_920 I/Os (37% of leaves),
   H4 83_389 (94%), PR 1_060 (1.2%), TGS 22_158 (25%). *)
let table1 ~scale ~seed =
  section "Table 1: query cost on CLUSTER";
  (* Clusters must span several leaves for the cluster structure to
     matter (the paper's 1000-point clusters span ~9 leaves); we keep
     ~300 points per cluster (~3 leaves) and scale the cluster count. *)
  let n_clusters = max 10 (int_of_float (330.0 *. scale)) in
  let per_cluster = 300 in
  let entries = Datasets.cluster ~n_clusters ~per_cluster ~seed in
  note "%d clusters x %d points = %s points; 100 strip queries of area 1e-7" n_clusters
    per_cluster
    (commas (Array.length entries));
  let queries = Queries.cluster_strips ~count:100 ~seed:(seed + 1) in
  let paper_pct = function
    | H -> "37%" | H4 -> "94%" | PR -> "1.2%" | TGS -> "25%" | STR -> "-"
  in
  let rows =
    List.map
      (fun v ->
        let pool = fresh_pool () in
        let tree = build_mem v pool entries in
        let s = Audit.validate tree in
        let c = measure_queries tree queries in
        let visited_pct = 100.0 *. c.mean_leaves /. float_of_int s.Audit.leaves in
        Bench_json.(
          row
            [
              ("variant", str (name v));
              ("mean_leaves", flt c.mean_leaves);
              ("mean_output", flt c.mean_output);
              ("visited_pct", flt visited_pct);
            ]);
        [
          name v;
          f1 c.mean_leaves;
          f1 c.mean_output;
          Printf.sprintf "%.1f%%" visited_pct;
          paper_pct v;
        ])
      paper_variants
  in
  Table.print
    ~header:[ "variant"; "I/Os per query"; "output T"; "% of leaves visited"; "paper %" ]
    rows;
  note "paper shape: PR visits well over an order of magnitude fewer leaves."

(* Theorem 3: the shifted-grid dataset plus a zero-output line query
   forces H, H4 and TGS to visit essentially every leaf; the PR-tree is
   bounded by O(sqrt(N/B)). *)
let thm3 ~scale ~seed =
  ignore seed;
  section "Theorem 3: zero-output line query on the worst-case grid";
  let columns_log2 =
    let target = int_of_float (1024.0 *. sqrt scale) in
    max 6 (int_of_float (Float.round (log (float_of_int target) /. log 2.0)))
  in
  let wc = Datasets.worst_case ~columns_log2 ~b:capacity in
  let n = Array.length wc.Datasets.entries in
  note "%d columns x %d rows = %s points; query: horizontal line between rows"
    wc.Datasets.columns wc.Datasets.rows (commas n);
  let query = Datasets.worst_case_query wc ~row:(capacity / 2) in
  let sqrt_bound = sqrt (float_of_int n /. float_of_int capacity) in
  let builders =
    List.map (fun v -> (name v, fun pool entries -> build_mem v pool entries)) paper_variants
    @ [ ("KDB", fun pool entries -> Prt_rtree.Kdbtree.load pool entries) ]
  in
  let rows =
    List.map
      (fun (vname, build) ->
        let pool = fresh_pool () in
        let tree = build pool wc.Datasets.entries in
        let s = Audit.validate tree in
        let stats = Rtree.query_count tree query in
        assert (stats.Rtree.matched = 0);
        Bench_json.(
          row
            [
              ("variant", str vname);
              ("leaves_visited", int stats.Rtree.leaf_visited);
              ("total_leaves", int s.Audit.leaves);
            ]);
        [
          vname;
          string_of_int stats.Rtree.leaf_visited;
          string_of_int s.Audit.leaves;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int stats.Rtree.leaf_visited /. float_of_int s.Audit.leaves);
          f1 (float_of_int stats.Rtree.leaf_visited /. sqrt_bound);
        ])
      builders
  in
  Table.print
    ~header:[ "variant"; "leaves visited"; "total leaves"; "% visited"; "x sqrt(N/B)" ]
    rows;
  note "paper shape: H, H4 and TGS visit Theta(N/B) leaves for zero output;";
  note "  the PR-tree stays within a constant multiple of sqrt(N/B) = %.0f." sqrt_bound;
  note "  (KDB is the paper's Section 1.1 point-data baseline: optimal on points,";
  note "  inapplicable to rectangles with extent.)"

(* Lemma 2 / Theorem 1: leaves visited on zero-output line queries must
   scale like sqrt(N/B) as N grows. *)
let bound ~scale ~seed =
  section "Query bound: PR-tree leaves visited vs c*sqrt(N/B) (Lemma 2)";
  let sizes =
    List.map (fun n -> int_of_float (float_of_int n *. scale)) [ 25_000; 50_000; 100_000; 200_000 ]
  in
  let rows =
    List.map
      (fun n ->
        let entries = Datasets.uniform_points ~n ~seed in
        let pool = fresh_pool () in
        let tree = Prt_prtree.Prtree.load pool entries in
        let rng = Prt_util.Rng.create (seed + 2) in
        let q = 50 in
        let total = ref 0 in
        for _ = 1 to q do
          let x = Prt_util.Rng.float rng 1.0 in
          let line = Rect.make ~xmin:x ~ymin:0.0 ~xmax:x ~ymax:1.0 in
          total := !total + (Rtree.query_count tree line).Rtree.leaf_visited
        done;
        let mean = float_of_int !total /. float_of_int q in
        let sqrt_nb = sqrt (float_of_int n /. float_of_int capacity) in
        Bench_json.(
          row [ ("n", int n); ("mean_leaves", flt mean); ("ratio", flt (mean /. sqrt_nb)) ]);
        [ commas n; f1 mean; f1 sqrt_nb; f2 (mean /. sqrt_nb) ])
      sizes
  in
  Table.print ~header:[ "N"; "mean leaves visited"; "sqrt(N/B)"; "ratio" ] rows;
  note "the ratio column staying flat as N grows 8x is the Lemma 2 guarantee."
