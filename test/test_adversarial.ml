(* Adversarial-input property tests: every loader (including both PR
   builders and the dynamic path) must answer queries exactly on inputs
   chosen to break tie-handling and partitioning — axis-aligned grids,
   collinear points, heavy duplicates, nested rectangles, flagpoles, and
   the Theorem 3 construction. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Datasets = Prt_workloads.Datasets
module Audit = Prt_rtree.Audit

(* --- adversarial dataset families --- *)

let grid_points ~n ~seed =
  ignore seed;
  let side = max 1 (int_of_float (sqrt (float_of_int n))) in
  Array.init n (fun i ->
      let x = float_of_int (i mod side) /. float_of_int side in
      let y = float_of_int (i / side) /. float_of_int side in
      Entry.make (Rect.point x y) i)

let collinear_x ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i -> Entry.make (Rect.point (Rng.float rng 1.0) 0.5) i)

let heavy_duplicates ~n ~seed =
  let rng = Rng.create seed in
  (* Only 5 distinct rectangles. *)
  let protos =
    Array.init 5 (fun _ -> Helpers.random_rect rng)
  in
  Array.init n (fun i -> Entry.make protos.(Rng.int rng 5) i)

let nested ~n ~seed =
  ignore seed;
  (* Onion rings: rectangle i strictly inside rectangle i-1. *)
  Array.init n (fun i ->
      let inset = 0.4 *. float_of_int i /. float_of_int (max 1 n) in
      Entry.make
        (Rect.make ~xmin:inset ~ymin:inset ~xmax:(1.0 -. inset) ~ymax:(1.0 -. inset))
        i)

let families =
  [
    ("grid", grid_points);
    ("collinear", collinear_x);
    ("duplicates", heavy_duplicates);
    ("nested", nested);
    ("flagpoles", fun ~n ~seed -> Datasets.flagpoles ~n ~seed);
  ]

let builders =
  [
    ("h", fun pool entries -> Prt_rtree.Bulk_hilbert.load_h pool entries);
    ("h4", fun pool entries -> Prt_rtree.Bulk_hilbert.load_h4 pool entries);
    ("str", fun pool entries -> Prt_rtree.Bulk_str.load pool entries);
    ("tgs", fun pool entries -> Prt_rtree.Bulk_tgs.load pool entries);
    ("pr", fun pool entries -> Prt_prtree.Prtree.load pool entries);
    ( "pr-ext",
      fun pool entries ->
        let file = Entry.File.of_array (Prt_storage.Buffer_pool.pager pool) entries in
        Prt_prtree.Ext_build.load ~mem_records:200 pool file );
    ( "dynamic",
      fun pool entries ->
        let tree = Rtree.create_empty pool in
        Array.iter (Prt_rtree.Dynamic.insert tree) entries;
        tree );
  ]

let test_family (fname, make) (bname, build) () =
  List.iter
    (fun n ->
      let entries = make ~n ~seed:(n + 100) in
      let pool = Helpers.small_pool () in
      let tree = build pool entries in
      let s = Helpers.check_structure tree in
      Alcotest.(check int) (fname ^ "/" ^ bname ^ " entries") n s.Audit.entries;
      (* Window queries, point queries on exact stored coordinates, and
         a full-world query. *)
      Helpers.check_tree_queries ~nqueries:15 ~seed:(n * 3) tree entries;
      if n > 0 then begin
        let probe = Entry.rect entries.(n / 2) in
        Helpers.check_query_matches_brute_force tree entries probe;
        Helpers.check_query_matches_brute_force tree entries
          (Rect.point (Rect.xmin probe) (Rect.ymin probe))
      end)
    [ 0; 1; 30; 300 ]

let test_worst_case_all_builders () =
  let wc = Datasets.worst_case ~columns_log2:5 ~b:14 in
  let entries = wc.Datasets.entries in
  List.iter
    (fun (bname, build) ->
      let pool = Helpers.small_pool () in
      let tree = build pool entries in
      ignore (Helpers.check_structure tree);
      let q = Datasets.worst_case_query wc ~row:7 in
      let result, _ = Rtree.query_list tree q in
      Alcotest.(check (list int)) (bname ^ " zero output") [] (Helpers.ids_of result);
      Helpers.check_tree_queries ~nqueries:10 ~seed:55 tree entries)
    builders

let test_dump_renders () =
  let entries = Helpers.random_entries ~n:40 ~seed:5 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let out = Format.asprintf "%t" (Rtree.dump tree) in
  Alcotest.(check bool) "mentions leaves" true
    (String.length out > 0
    && (let count = ref 0 in
        String.iteri (fun _ c -> if c = '\n' then incr count) out;
        !count >= 3))

let suite =
  List.concat_map
    (fun family ->
      List.map
        (fun builder ->
          let fname, _ = family and bname, _ = builder in
          Alcotest.test_case
            (Printf.sprintf "%s via %s" fname bname)
            `Quick (test_family family builder))
        builders)
    families
  @ [
      Alcotest.test_case "worst-case grid via all builders" `Quick test_worst_case_all_builders;
      Alcotest.test_case "dump renders" `Quick test_dump_renders;
    ]
