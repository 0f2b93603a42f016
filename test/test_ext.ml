(* External bulk-loader tests: the I/O-counted loaders must produce
   valid trees answering queries exactly like the in-memory loaders,
   across memory budgets that force the external paths, and their I/O
   ordering must match the paper's (H cheapest, TGS most expensive). *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Ext_load = Prt_rtree.Ext_load
module Ext_build = Prt_prtree.Ext_build
module Audit = Prt_rtree.Audit

let cap = Node.capacity ~page_size:Helpers.small_page_size (* 13 *)

(* A fresh pool plus the input entries written to a record file in it. *)
let setup entries =
  let pool = Helpers.small_pool () in
  let file = Entry.File.of_array (Buffer_pool.pager pool) entries in
  (pool, file)

let ext_loaders =
  [
    ("ext-h", fun pool ~mem_records file -> Ext_load.load_h pool ~mem_records file);
    ("ext-h4", fun pool ~mem_records file -> Ext_load.load_h4 pool ~mem_records file);
    ("ext-tgs", fun pool ~mem_records file -> Ext_load.load_tgs pool ~mem_records file);
    ("ext-pr", fun pool ~mem_records file -> Ext_build.load ~mem_records pool file);
  ]

let test_ext_loader_correct (name, load) () =
  List.iter
    (fun (n, mem_records) ->
      let entries = Helpers.random_entries ~n ~seed:(n + 3) in
      let pool, file = setup entries in
      let tree = load pool ~mem_records file in
      Buffer_pool.flush (Rtree.pool tree);
      Alcotest.(check int) (name ^ " count") n (Rtree.count tree);
      let s = Helpers.check_structure tree in
      Alcotest.(check int) (name ^ " entries") n s.Audit.entries;
      Helpers.check_tree_queries ~seed:(n * 13) tree entries)
    [ (0, 400); (1, 400); (30, 400); (500, 8 * cap); (1500, 200); (1500, 2000) ]

(* A tree level by level from the root: each level's nodes in order,
   each node as its entries' boxes in page order, with the data ids in
   the leaves (a child's page id depends on where its loader's pages
   fell, so internal entries keep only their boxes). *)
let levels tree =
  let rec from ids acc =
    if ids = [] then List.rev acc
    else begin
      let nodes = List.map (Rtree.read_node tree) ids in
      let entry kind e = (Entry.rect e, if kind = Node.Leaf then Entry.id e else -1) in
      let level = List.map (fun n -> Array.map (entry (Node.kind n)) (Node.entries n)) nodes
      and children =
        List.concat_map
          (fun n ->
            match Node.kind n with
            | Node.Internal -> Array.to_list (Array.map Entry.id (Node.entries n))
            | Node.Leaf -> [])
          nodes
      in
      from children (level :: acc)
    end
  in
  from [ Rtree.root tree ] []

(* An external loader, under a budget that forces external sorts (800
   entries, 200 in memory), must build the in-memory loader's tree:
   level by level, the same leaf ids and node boxes in the same
   order. *)
let check_matches_in_memory name ~ext ~mem =
  let entries = Helpers.random_entries ~n:800 ~seed:9 in
  let pool, file = setup entries in
  let ext_tree = ext pool ~mem_records:200 file in
  let mem_tree = mem (Helpers.small_pool ()) entries in
  Alcotest.(check int) (name ^ ": height agrees") (Rtree.height mem_tree) (Rtree.height ext_tree);
  let leaves tree = (Audit.validate tree).Audit.leaves in
  Alcotest.(check int) (name ^ ": leaf count agrees") (leaves mem_tree) (leaves ext_tree);
  List.iteri
    (fun depth (m, e) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: nodes at depth %d" name depth)
        (List.length m) (List.length e);
      Alcotest.(check bool)
        (Printf.sprintf "%s: same boxes and leaf ids at depth %d" name depth)
        true (m = e))
    (List.combine (levels mem_tree) (levels ext_tree))

let test_ext_matches_in_memory_h () =
  check_matches_in_memory "ext-h" ~ext:Ext_load.load_h ~mem:Prt_rtree.Bulk_hilbert.load_h

let test_ext_matches_in_memory_h4_tgs () =
  check_matches_in_memory "ext-h4" ~ext:Ext_load.load_h4 ~mem:Prt_rtree.Bulk_hilbert.load_h4;
  check_matches_in_memory "ext-tgs" ~ext:Ext_load.load_tgs ~mem:Prt_rtree.Bulk_tgs.load

let test_ext_pr_worst_case_bound () =
  (* The externally-built PR-tree must keep the worst-case query
     guarantee. *)
  let wc = Prt_workloads.Datasets.worst_case ~columns_log2:6 ~b:cap in
  let pool, file = setup wc.Prt_workloads.Datasets.entries in
  let tree = Ext_build.load ~mem_records:200 pool file in
  ignore (Helpers.check_structure tree);
  let query = Prt_workloads.Datasets.worst_case_query wc ~row:(cap / 2) in
  let stats = Rtree.query_count tree query in
  Alcotest.(check int) "zero output" 0 stats.Rtree.matched;
  let n = Array.length wc.Prt_workloads.Datasets.entries in
  let bound = 10.0 *. sqrt (float_of_int n /. float_of_int cap) in
  Alcotest.(check bool)
    (Printf.sprintf "visits %d <= %.0f leaves" stats.Rtree.leaf_visited bound)
    true
    (float_of_int stats.Rtree.leaf_visited <= bound)

let test_io_ordering_matches_paper () =
  (* Figure 9's shape: H uses the fewest I/Os, PR more, TGS the most. *)
  let entries = Helpers.random_entries ~n:4000 ~seed:5 in
  let mem_records = 400 in
  let build load =
    let pool, file = setup entries in
    let pager = Buffer_pool.pager pool in
    let before = Pager.snapshot pager in
    let tree = load pool ~mem_records file in
    Buffer_pool.flush (Rtree.pool tree);
    let d = Pager.diff ~before ~after:(Pager.snapshot pager) in
    ignore (Helpers.check_structure tree);
    Pager.total_io d
  in
  let h = build Ext_load.load_h in
  let pr = build (fun pool ~mem_records file -> Ext_build.load ~mem_records pool file) in
  let tgs = build Ext_load.load_tgs in
  Alcotest.(check bool) (Printf.sprintf "H=%d < PR=%d" h pr) true (h < pr);
  Alcotest.(check bool) (Printf.sprintf "PR=%d < TGS=%d" pr tgs) true (pr < tgs)

let test_ext_input_left_intact () =
  let entries = Helpers.random_entries ~n:600 ~seed:6 in
  let pool, file = setup entries in
  let _tree = Ext_build.load ~mem_records:200 pool file in
  Alcotest.(check int) "input length" 600 (Entry.File.length file);
  let back = Entry.File.read_all file in
  Array.iteri
    (fun i e -> Alcotest.(check bool) "unchanged" true (Entry.equal e back.(i)))
    entries

let test_ext_pr_duplicate_rects () =
  (* Identical rectangles (ids still unique) through the external path. *)
  let r = Rect.make ~xmin:0.3 ~ymin:0.3 ~xmax:0.4 ~ymax:0.4 in
  let entries = Array.init 500 (fun i -> Entry.make r i) in
  let pool, file = setup entries in
  let tree = Ext_build.load ~mem_records:150 pool file in
  ignore (Helpers.check_structure tree);
  Helpers.check_query_matches_brute_force tree entries r

let test_ext_pr_rejects_tiny_budget () =
  let pool, file = setup (Helpers.random_entries ~n:10 ~seed:1) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ext_build.load ~mem_records:(8 * cap - 1) pool file);
       false
     with Invalid_argument _ -> true)

let suite =
  List.map
    (fun loader ->
      let name, _ = loader in
      Alcotest.test_case (name ^ ": correct across sizes and budgets") `Quick
        (test_ext_loader_correct loader))
    ext_loaders
  @ [
      Alcotest.test_case "ext-h matches in-memory shape" `Quick test_ext_matches_in_memory_h;
      Alcotest.test_case "ext-h4 and ext-tgs match in-memory shape" `Quick
        test_ext_matches_in_memory_h4_tgs;
      Alcotest.test_case "ext-pr keeps worst-case bound" `Quick test_ext_pr_worst_case_bound;
      Alcotest.test_case "construction I/O ordering (Fig 9 shape)" `Quick
        test_io_ordering_matches_paper;
      Alcotest.test_case "input file left intact" `Quick test_ext_input_left_intact;
      Alcotest.test_case "ext-pr duplicate rectangles" `Quick test_ext_pr_duplicate_rects;
      Alcotest.test_case "ext-pr rejects tiny budget" `Quick test_ext_pr_rejects_tiny_budget;
    ]
