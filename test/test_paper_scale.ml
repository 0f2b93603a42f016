(* Tests at the paper's real page geometry (4 KB pages, fanout 113) —
   the rest of the suite uses small pages to get deep trees cheaply;
   this one checks nothing breaks at production parameters. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Datasets = Prt_workloads.Datasets
module Audit = Prt_rtree.Audit

let pool () = Buffer_pool.create ~capacity:8192 (Pager.create_memory ())

let n = 30_000

let test_pr_at_paper_fanout () =
  let entries = Helpers.random_entries ~n ~seed:1 in
  let tree = Prt_prtree.Prtree.load (pool ()) entries in
  Alcotest.(check int) "fanout" 113 (Rtree.capacity tree);
  Alcotest.(check int) "height" 3 (Rtree.height tree);
  let s = Helpers.check_structure tree in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f reasonable" s.Audit.utilization)
    true (s.Audit.utilization > 0.85);
  Helpers.check_tree_queries ~nqueries:15 ~seed:2 tree entries

let test_packed_utilization_99 () =
  (* The paper reports > 99% utilization for its bulk loaders. *)
  let entries = Helpers.random_entries ~n ~seed:3 in
  List.iter
    (fun (name, load) ->
      let tree = load (pool ()) entries in
      let s = Helpers.check_structure tree in
      Alcotest.(check bool)
        (Printf.sprintf "%s utilization %.3f > 0.99" name s.Audit.utilization)
        true (s.Audit.utilization > 0.99))
    [
      ("h", fun p e -> Prt_rtree.Bulk_hilbert.load_h p e);
      ("h4", fun p e -> Prt_rtree.Bulk_hilbert.load_h4 p e);
      ("str", Prt_rtree.Bulk_str.load);
    ]

let test_tgs_at_paper_fanout () =
  let entries = Helpers.random_entries ~n:8_000 ~seed:4 in
  let tree = Prt_rtree.Bulk_tgs.load (pool ()) entries in
  ignore (Helpers.check_structure tree);
  Helpers.check_tree_queries ~nqueries:10 ~seed:5 tree entries

let test_sqrt_constant_at_paper_fanout () =
  (* The Lemma 2 constant at the real fanout: zero-output vertical lines
     on uniform points must visit only a few times sqrt(N/B) leaves. *)
  let entries = Datasets.uniform_points ~n:50_000 ~seed:6 in
  let tree = Prt_prtree.Prtree.load (pool ()) entries in
  let rng = Prt_util.Rng.create 7 in
  let total = ref 0 in
  let q = 25 in
  for _ = 1 to q do
    let x = Prt_util.Rng.float rng 1.0 in
    total := !total + (Rtree.query_count tree (Rect.make ~xmin:x ~ymin:0.0 ~xmax:x ~ymax:1.0)).Rtree.leaf_visited
  done;
  let mean = float_of_int !total /. float_of_int q in
  let bound = 3.0 *. sqrt (50_000.0 /. 113.0) in
  Alcotest.(check bool) (Printf.sprintf "%.1f <= %.1f" mean bound) true (mean <= bound)

let test_ext_pr_at_paper_fanout () =
  let entries = Helpers.random_entries ~n ~seed:8 in
  let p = pool () in
  let file = Entry.File.of_array (Buffer_pool.pager p) entries in
  let tree = Prt_prtree.Ext_build.load ~mem_records:5_000 p file in
  ignore (Helpers.check_structure tree);
  Helpers.check_tree_queries ~nqueries:10 ~seed:9 tree entries

(* The logarithmic method at M0 = 113, one leaf's worth of buffer. *)
let test_lsm_at_paper_fanout () =
  Helpers.with_temp_dir @@ fun dir ->
  let t = Prt_logmethod.Lsm.create ~buffer_capacity:113 ~wal_sync:`Never dir in
  Fun.protect ~finally:(fun () -> Prt_logmethod.Lsm.close t) @@ fun () ->
  let entries = Helpers.random_entries ~n:10_000 ~seed:10 in
  Array.iter (Prt_logmethod.Lsm.insert t) entries;
  Prt_logmethod.Lsm.validate t;
  let q = Helpers.random_rect (Prt_util.Rng.create 11) in
  let result, _ = Prt_logmethod.Lsm.query_list t q in
  Alcotest.(check (list int)) "query" (Helpers.brute_force entries q) (Helpers.ids_of result)

let suite =
  [
    Alcotest.test_case "pr at fanout 113" `Quick test_pr_at_paper_fanout;
    Alcotest.test_case "packed loaders >99% utilization" `Quick test_packed_utilization_99;
    Alcotest.test_case "tgs at fanout 113" `Quick test_tgs_at_paper_fanout;
    Alcotest.test_case "lemma 2 constant at fanout 113" `Quick test_sqrt_constant_at_paper_fanout;
    Alcotest.test_case "external pr at fanout 113" `Quick test_ext_pr_at_paper_fanout;
    Alcotest.test_case "lsm at fanout 113" `Quick test_lsm_at_paper_fanout;
  ]
