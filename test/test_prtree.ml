(* PR-tree tests: pseudo-PR-tree structure (priority-leaf extremality,
   degree bounds, partition of the input), query exactness for both the
   pseudo tree and the real PR-tree, and empirical checks of the paper's
   guarantees — Lemma 2 / Theorem 1 (O(sqrt(N/B) + T/B) I/Os), Theorem
   3 (heuristic trees forced to visit every leaf while the PR-tree is
   not) and Figure 15's skew invariance. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Node = Prt_rtree.Node
module Pseudo = Prt_prtree.Pseudo
module Prtree = Prt_prtree.Prtree
module Bulk_hilbert = Prt_rtree.Bulk_hilbert
module Bulk_tgs = Prt_rtree.Bulk_tgs
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries
module Audit = Prt_rtree.Audit

let b = 14 (* matches the small-page capacity used elsewhere in tests *)

(* --- pseudo-PR-tree structure --- *)

let test_pseudo_validate_and_size () =
  List.iter
    (fun n ->
      let entries = Helpers.random_entries ~n ~seed:(2 * n) in
      let t = Pseudo.build ~b entries in
      Helpers.check_no_violations (Pseudo.audit ~b t);
      Alcotest.(check int) "size" n (Pseudo.size t))
    [ 1; 5; 14; 15; 100; 500 ]

let test_pseudo_leaves_partition_input () =
  let entries = Helpers.random_entries ~n:300 ~seed:77 in
  let t = Pseudo.build ~b entries in
  let ids =
    Pseudo.leaves t |> List.concat_map (fun arr -> Array.to_list (Array.map Entry.id arr))
  in
  Alcotest.(check (list int)) "every entry in exactly one leaf"
    (List.init 300 Fun.id)
    (List.sort Int.compare ids)

let test_pseudo_priority_extremality () =
  (* Walk the tree keeping the invariant: each priority leaf's entries
     must all be at least as extreme (in its direction) as every entry
     stored deeper in the node after it. *)
  let entries = Helpers.random_entries ~n:400 ~seed:31 in
  let t = Pseudo.build ~b entries in
  let rec collect t acc =
    match t with
    | Pseudo.Leaf { entries; _ } -> Array.to_list entries @ acc
    | Pseudo.Node { children; _ } -> List.fold_left (fun acc c -> collect c acc) acc children
  in
  let rec check t =
    match t with
    | Pseudo.Leaf _ -> ()
    | Pseudo.Node { children; _ } ->
        (* For each priority leaf, every entry in the children after it
           must not be more extreme. *)
        let rec scan = function
          | [] -> ()
          | Pseudo.Leaf { entries = pl; priority = Some dim; _ } :: rest ->
              let later = List.concat_map (fun c -> collect c []) rest in
              let cmp = Pseudo.extreme_cmp dim in
              let least_extreme =
                Array.fold_left (fun acc e -> if cmp acc e < 0 then e else acc) pl.(0) pl
              in
              List.iter
                (fun e ->
                  Alcotest.(check bool) "priority leaf holds the extremes" true
                    (cmp least_extreme e <= 0))
                later;
              scan rest
          | _ :: rest -> scan rest
        in
        scan children;
        List.iter check children
  in
  check t

let test_pseudo_query_oracle () =
  let entries = Helpers.random_entries ~n:500 ~seed:3 in
  let t = Pseudo.build ~b entries in
  let queries = Helpers.random_queries ~n:50 ~seed:4 in
  Array.iter
    (fun q ->
      let acc = ref [] in
      ignore (Pseudo.query t q ~f:(fun e -> acc := e :: !acc));
      Alcotest.(check (list int)) "pseudo query matches brute force"
        (Helpers.brute_force entries q) (Helpers.ids_of !acc))
    queries

let test_pseudo_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pseudo.build ~b [||]);
       false
     with Invalid_argument _ -> true)

(* --- PR-tree --- *)

let test_prtree_structure_and_queries () =
  List.iter
    (fun n ->
      let entries = Helpers.random_entries ~n ~seed:(n + 1) in
      let pool = Helpers.small_pool () in
      let tree = Prtree.load pool entries in
      let s = Helpers.check_structure tree in
      Alcotest.(check int) "entries" n s.Audit.entries;
      Helpers.check_tree_queries ~seed:(n * 7) tree entries)
    [ 0; 1; 13; 14; 15; 100; 700 ]

let prop_prtree_query_correct =
  QCheck.Test.make ~name:"prtree answers random queries exactly" ~count:30
    (QCheck.pair (Helpers.arbitrary_entries 400) QCheck.(int_range 0 1_000_000))
    (fun (entries, qseed) ->
      let query = Helpers.random_rect (Prt_util.Rng.create qseed) in
      let pool = Helpers.small_pool () in
      let tree = Prtree.load pool entries in
      let result, _ = Rtree.query_list tree query in
      Helpers.ids_of result = Helpers.brute_force entries query)

let test_prtree_duplicates () =
  let r = Rect.make ~xmin:0.1 ~ymin:0.1 ~xmax:0.2 ~ymax:0.2 in
  let entries = Array.init 200 (fun i -> Entry.make r i) in
  let pool = Helpers.small_pool () in
  let tree = Prtree.load pool entries in
  ignore (Helpers.check_structure tree);
  Helpers.check_query_matches_brute_force tree entries r

let test_prtree_points () =
  (* Degenerate rectangles (points) exercise all ties. *)
  let entries = Datasets.uniform_points ~n:400 ~seed:17 in
  let pool = Helpers.small_pool () in
  let tree = Prtree.load pool entries in
  ignore (Helpers.check_structure tree);
  Helpers.check_tree_queries ~seed:18 tree entries

(* --- the worst-case guarantee --- *)

(* Zero-output line queries on the Theorem-3 grid, one through every
   inner row: the packed Hilbert tree must visit more than half of its
   leaves on each, the PR-tree at most 3·sqrt(N/B).  On the 64 x 14
   grid (sqrt(N/B) = 8) the PR-tree visits 8-22 leaves per row and H
   44-66 of its 69. *)
let test_worst_case_guarantee () =
  let wc = Datasets.worst_case ~columns_log2:6 ~b in
  (* 64 columns x 14 rows = 896 points. *)
  let pool_h = Helpers.small_pool () and pool_pr = Helpers.small_pool () in
  let h_tree = Bulk_hilbert.load_h pool_h wc.Datasets.entries in
  let pr_tree = Prtree.load pool_pr wc.Datasets.entries in
  let h_struct = Helpers.check_structure h_tree in
  let pr_struct = Helpers.check_structure pr_tree in
  let n = Array.length wc.Datasets.entries in
  let bound = 3.0 *. sqrt (float_of_int n /. float_of_int b) in
  for row = 1 to b - 1 do
    let query = Datasets.worst_case_query wc ~row in
    (* The query must report nothing. *)
    Alcotest.(check (list int)) "zero output" [] (Helpers.brute_force wc.Datasets.entries query);
    let h_stats = Rtree.query_count h_tree query in
    let pr_stats = Rtree.query_count pr_tree query in
    Alcotest.(check int) "H reports nothing" 0 h_stats.Rtree.matched;
    Alcotest.(check int) "PR reports nothing" 0 pr_stats.Rtree.matched;
    Alcotest.(check bool)
      (Printf.sprintf "row %d: H visits most leaves (%d of %d)" row h_stats.Rtree.leaf_visited
         h_struct.Audit.leaves)
      true
      (2 * h_stats.Rtree.leaf_visited > h_struct.Audit.leaves);
    Alcotest.(check bool)
      (Printf.sprintf "row %d: PR visits %d <= %.0f leaves (of %d)" row
         pr_stats.Rtree.leaf_visited bound pr_struct.Audit.leaves)
      true
      (float_of_int pr_stats.Rtree.leaf_visited <= bound)
  done

(* Lemma 2 / Theorem 1 empirically: across dataset sizes, zero-output
   line queries on uniform data visit O(sqrt(N/B)) leaves.  The ratio
   (leaves visited) / sqrt(N/B) is 1.10, 1.34 and 1.54 at N = 500,
   2,000 and 8,000 (1.62 at 32,000): it must stay at most 2 at each,
   and grow less than 1.5x while N grows 16x. *)
let test_sqrt_scaling () =
  let ratio n =
    let entries = Datasets.uniform_points ~n ~seed:5 in
    let pool = Helpers.small_pool () in
    let tree = Prtree.load pool entries in
    (* Vertical zero-width line queries: T is tiny, so visits are
       dominated by the sqrt term. *)
    let rng = Prt_util.Rng.create 6 in
    let total = ref 0 in
    let q = 20 in
    for _ = 1 to q do
      let x = Prt_util.Rng.float rng 1.0 in
      let line = Rect.make ~xmin:x ~ymin:0.0 ~xmax:x ~ymax:1.0 in
      total := !total + (Rtree.query_count tree line).Rtree.leaf_visited
    done;
    float_of_int !total /. float_of_int q /. sqrt (float_of_int n /. float_of_int b)
  in
  let r_small = ratio 500 and r_mid = ratio 2000 and r_big = ratio 8000 in
  List.iter
    (fun (n, r) ->
      Alcotest.(check bool) (Printf.sprintf "ratio %.2f at N=%d is at most 2" r n) true (r <= 2.0))
    [ (500, r_small); (2000, r_mid); (8000, r_big) ];
  Alcotest.(check bool)
    (Printf.sprintf "sqrt scaling: ratio %.2f (N=500) vs %.2f (N=8000)" r_small r_big)
    true
    (r_big < 1.5 *. r_small)

(* Figure 15's SKEWED(c) flatness, exactly: the kernel only compares
   coordinates, and y -> y^c keeps their order, so on SKEWED(c) data
   with the skewed queries every query visits the same leaves and
   matches the same entries for every c. *)
let test_skew_invariance () =
  let n = 5_000 and queries = 100 in
  let cost c =
    let tree = Prtree.load (Helpers.small_pool ()) (Datasets.skewed ~n ~c ~seed:3) in
    Array.map
      (fun q ->
        let s = Rtree.query_count tree q in
        (s.Rtree.leaf_visited, s.Rtree.matched))
      (Queries.skewed_squares ~count:queries ~area_fraction:0.01 ~c ~seed:13)
  in
  let flat = cost 1 in
  Alcotest.(check bool) "the queries match something" true
    (Array.exists (fun (_, m) -> m > 0) flat);
  List.iter
    (fun c ->
      Alcotest.(check (array (pair int int)))
        (Printf.sprintf "SKEWED(%d): leaves and matches per query as c = 1" c)
        flat (cost c))
    [ 3; 5; 9 ]

let test_prtree_count_iter () =
  let entries = Helpers.random_entries ~n:321 ~seed:9 in
  let pool = Helpers.small_pool () in
  let tree = Prtree.load pool entries in
  let seen = ref 0 in
  Rtree.iter tree ~f:(fun _ -> incr seen);
  Alcotest.(check int) "iter covers all" 321 !seen;
  Alcotest.(check int) "count" 321 (Rtree.count tree)

let suite =
  [
    Alcotest.test_case "pseudo: validate and size" `Quick test_pseudo_validate_and_size;
    Alcotest.test_case "pseudo: leaves partition input" `Quick test_pseudo_leaves_partition_input;
    Alcotest.test_case "pseudo: priority extremality" `Quick test_pseudo_priority_extremality;
    Alcotest.test_case "pseudo: query vs oracle" `Quick test_pseudo_query_oracle;
    Alcotest.test_case "pseudo: empty raises" `Quick test_pseudo_rejects_empty;
    Alcotest.test_case "prtree: structure and queries" `Quick test_prtree_structure_and_queries;
    Helpers.qcheck_case prop_prtree_query_correct;
    Alcotest.test_case "prtree: duplicates" `Quick test_prtree_duplicates;
    Alcotest.test_case "prtree: points" `Quick test_prtree_points;
    Alcotest.test_case "prtree: worst-case guarantee (Thm 3)" `Quick test_worst_case_guarantee;
    Alcotest.test_case "prtree: sqrt(N/B) scaling (Lemma 2)" `Quick test_sqrt_scaling;
    Alcotest.test_case "prtree: skew cannot move it (Fig 15)" `Quick test_skew_invariance;
    Alcotest.test_case "prtree: iter/count" `Quick test_prtree_count_iter;
  ]
