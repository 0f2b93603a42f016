(* Differential testing across every index implementation in the
   repository: for the same random rectangle set and query batch, all of
   them — five bulk loaders, the external PR builder, the dynamically
   built tree, the logarithmic method (an [Lsm] store), and (on points)
   the kdB-tree — must return exactly the same answers.

   This is the strongest cheap correctness signal the repo has: a bug in
   any one traversal, codec, split or build shows up as a disagreement
   with seven independent implementations.  The oracle loop itself lives
   in Helpers.check_impls_agree, shared with the fault-injection suite. *)

module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Lsm = Prt_logmethod.Lsm

(* [f] runs while the implementations are open: the Lsm store lives in
   a temporary directory, with M0 = 14 and small pages. *)
let with_impls entries f =
  let pool () = Helpers.small_pool () in
  let dynamic =
    let tree = Rtree.create_empty (pool ()) in
    Array.iter (Prt_rtree.Dynamic.insert tree) entries;
    tree
  in
  let ext_pr =
    let p = pool () in
    let file = Entry.File.of_array (Prt_storage.Buffer_pool.pager p) entries in
    Prt_prtree.Ext_build.load ~mem_records:200 p file
  in
  Helpers.with_temp_dir @@ fun dir ->
  let lsm =
    Lsm.create ~buffer_capacity:14 ~page_size:Helpers.small_page_size ~wal_sync:`Never dir
  in
  Fun.protect ~finally:(fun () -> Lsm.close lsm) @@ fun () ->
  Array.iter (Lsm.insert lsm) entries;
  f
    [
      Helpers.rtree_impl "pr" (Prt_prtree.Prtree.load (pool ()) entries);
      Helpers.rtree_impl "pr-ext" ext_pr;
      Helpers.rtree_impl "h" (Prt_rtree.Bulk_hilbert.load_h (pool ()) entries);
      Helpers.rtree_impl "h4" (Prt_rtree.Bulk_hilbert.load_h4 (pool ()) entries);
      Helpers.rtree_impl "str" (Prt_rtree.Bulk_str.load (pool ()) entries);
      Helpers.rtree_impl "tgs" (Prt_rtree.Bulk_tgs.load (pool ()) entries);
      Helpers.rtree_impl "dynamic" dynamic;
      {
        Helpers.impl_name = "lsm";
        impl_query = (fun q -> Helpers.ids_of (fst (Lsm.query_list lsm q)));
      };
    ]

let run_batch ~n ~seed ~make_entries =
  let entries = make_entries ~n ~seed in
  with_impls entries (fun impls -> Helpers.check_impls_agree ~seed:(seed + 1) impls entries)

let test_differential_random () =
  run_batch ~n:400 ~seed:10 ~make_entries:(fun ~n ~seed -> Helpers.random_entries ~n ~seed)

let test_differential_points () =
  (* Points additionally admit the kdB-tree. *)
  let entries = Prt_workloads.Datasets.uniform_points ~n:400 ~seed:20 in
  let kdb = Helpers.rtree_impl "kdb" (Prt_rtree.Kdbtree.load (Helpers.small_pool ()) entries) in
  with_impls entries (fun impls -> Helpers.check_impls_agree ~seed:21 (impls @ [ kdb ]) entries)

let test_differential_extreme () =
  run_batch ~n:300 ~seed:30 ~make_entries:(fun ~n ~seed ->
      Prt_workloads.Datasets.aspect ~n ~a:1000.0 ~seed)

let test_differential_duplicates () =
  run_batch ~n:300 ~seed:40 ~make_entries:(fun ~n ~seed ->
      let rng = Rng.create seed in
      let protos = Array.init 3 (fun _ -> Helpers.random_rect rng) in
      Array.init n (fun i -> Entry.make protos.(i mod 3) i))

let suite =
  [
    Alcotest.test_case "all implementations agree (random rects)" `Quick test_differential_random;
    Alcotest.test_case "all implementations agree (points, incl. kdB)" `Quick
      test_differential_points;
    Alcotest.test_case "all implementations agree (high aspect)" `Quick test_differential_extreme;
    Alcotest.test_case "all implementations agree (duplicates)" `Quick
      test_differential_duplicates;
  ]
