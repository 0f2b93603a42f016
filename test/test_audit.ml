(* The unified invariant audit, tested from both sides.

   Positive: every variant the repository can build — the five in-memory
   bulk loaders, the external PR build, the dynamic tree, the kdB-tree
   on points, the d-dimensional PR-tree, and both in-memory pseudo-trees
   — audits clean, across sizes and page sizes, including the page-leak
   sweep where the tree owns the whole device.

   Mutation: corrupt one page of a built tree through the pager (below
   the buffer pool, which is dropped first so the cache cannot mask the
   damage) and assert the audit reports the *specific* invariant that
   byte broke, by its stable label — never a crash, never a clean
   report.  The bytes being poked are found through [Node]'s layout
   offsets (kind byte, count, coordinate [i] of a column, id [i]), so
   the mutations follow the page format. *)

module Rng = Prt_util.Rng
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Audit = Prt_rtree.Audit
module Audit_nd = Prt_ndtree.Audit_nd

let labels (r : Audit.report) = List.map (fun v -> Audit.label v.Audit.what) r.Audit.violations

let assert_flags ?check_leaks tree expected =
  let r = Audit.check ?check_leaks tree in
  if not (List.mem expected (labels r)) then
    Alcotest.failf "expected a %s violation; audit said: %a" expected Audit.pp_report r

(* --- positive: everything the repo builds audits clean --- *)

let in_memory_variants =
  [
    ("pr", fun pool entries -> Prt_prtree.Prtree.load pool entries);
    ("h", fun pool entries -> Prt_rtree.Bulk_hilbert.load_h pool entries);
    ("h4", fun pool entries -> Prt_rtree.Bulk_hilbert.load_h4 pool entries);
    ("str", fun pool entries -> Prt_rtree.Bulk_str.load pool entries);
    ("tgs", fun pool entries -> Prt_rtree.Bulk_tgs.load pool entries);
  ]

let test_variants_audit_clean () =
  List.iter
    (fun (page_size, n) ->
      let entries = Helpers.random_entries ~n ~seed:(n + page_size) in
      List.iter
        (fun (vname, build) ->
          let pool = Buffer_pool.create ~capacity:4096 (Pager.create_memory ~page_size ()) in
          let tree = build pool entries in
          (* Fresh device, in-memory build: the tree owns every page, so
             the leak sweep runs with no exclusions. *)
          let r = Helpers.check_audit ~check_leaks:true tree in
          Alcotest.(check int) (vname ^ ": audited all entries") n r.Audit.entries)
        in_memory_variants)
    [ (512, 60); (512, 300); (4096, 500) ]

let test_ext_build_audits_clean () =
  let entries = Helpers.random_entries ~n:300 ~seed:3 in
  let pool = Helpers.small_pool () in
  let file = Entry.File.of_array (Buffer_pool.pager pool) entries in
  let tree = Prt_prtree.Ext_build.load ~mem_records:200 pool file in
  (* The record file shares the device, so no leak sweep here. *)
  ignore (Helpers.check_audit tree)

let test_dynamic_and_kdb_audit_clean () =
  let entries = Helpers.random_entries ~n:200 ~seed:5 in
  let dyn = Rtree.create_empty (Helpers.small_pool ()) in
  Array.iter (Prt_rtree.Dynamic.insert dyn) entries;
  ignore (Helpers.check_audit dyn);
  let points = Prt_workloads.Datasets.uniform_points ~n:200 ~seed:6 in
  ignore
    (Helpers.check_audit ~check_leaks:true (Prt_rtree.Kdbtree.load (Helpers.small_pool ()) points))

let test_empty_tree_audits_clean () =
  ignore (Helpers.check_audit ~check_leaks:true (Rtree.create_empty (Helpers.small_pool ())))

let test_fill_factor_floors () =
  (* STR packs leaves to capacity (last one exempt as the recursion's
     tail): a minimum fill of 2 must hold when the entry count tiles the
     slice grid exactly (25 full leaves in a 5x5 slicing). *)
  let cap = Prt_rtree.Node.capacity ~page_size:Helpers.small_page_size in
  let entries = Helpers.random_entries ~n:(25 * cap) ~seed:7 in
  let tree = Prt_rtree.Bulk_str.load (Helpers.small_pool ()) entries in
  let r = Audit.check ~min_leaf_fill:2 ~min_fanout:2 tree in
  if not (Audit.ok r) then Alcotest.failf "fill-floor audit failed: %a" Audit.pp_report r

(* d-dimensional mirror. *)
let random_entries_nd ~dims ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      let lo = Array.init dims (fun _ -> Rng.float rng 1.0) in
      let hi = Array.map (fun v -> Float.min 1.0 (v +. Rng.float rng 0.2)) lo in
      Prt_ndtree.Entry_nd.make (Prt_geom.Hyperrect.make ~lo ~hi) i)

let test_ndtree_audits_clean () =
  List.iter
    (fun dims ->
      let entries = random_entries_nd ~dims ~n:150 ~seed:dims in
      let tree = Prt_ndtree.Prtree_nd.load ~dims (Helpers.small_pool ()) entries in
      let r = Audit_nd.check ~check_leaks:true tree in
      if not (Audit.ok r) then
        Alcotest.failf "ndtree dims=%d audit failed: %a" dims Audit.pp_report r)
    [ 3; 4 ]

let test_pseudo_trees_audit_clean () =
  let entries = Helpers.random_entries ~n:200 ~seed:9 in
  (match Prt_prtree.Pseudo.audit ~b:14 (Prt_prtree.Pseudo.build ~b:14 entries) with
  | [] -> ()
  | vs ->
      Alcotest.failf "2-d pseudo-tree audit failed: %a"
        (Fmt.list ~sep:Fmt.cut Audit.pp_violation) vs);
  let entries_nd = random_entries_nd ~dims:3 ~n:200 ~seed:10 in
  match Audit_nd.check_pseudo ~b:14 ~dims:3 (Prt_ndtree.Pseudo_nd.build ~b:14 ~dims:3 entries_nd) with
  | [] -> ()
  | vs ->
      Alcotest.failf "3-d pseudo-tree audit failed: %a"
        (Fmt.list ~sep:Fmt.cut Audit.pp_violation) vs

(* check_pseudo's catalogue, case by case. *)
let test_check_pseudo_catalogue () =
  let mk ?(box_ok = true) kind = { Audit.pd_where = "n"; pd_kind = kind; pd_box_ok = box_ok } in
  let lbls descs =
    List.map
      (fun v -> Audit.label v.Audit.what)
      (Audit.check_pseudo ~degree_limit:6 ~leaf_capacity:4 descs)
  in
  let check = Alcotest.(check (list string)) in
  check "clean pseudo-tree" []
    (lbls
       [
         mk (Audit.Pseudo_node { degree = 6 });
         mk (Audit.Pseudo_leaf { size = 4; priority = Some 0; extreme = true });
       ]);
  check "degree bound" [ "degree-exceeded" ] (lbls [ mk (Audit.Pseudo_node { degree = 7 }) ]);
  check "leaf overflow" [ "node-overflow" ]
    (lbls [ mk (Audit.Pseudo_leaf { size = 5; priority = None; extreme = true }) ]);
  check "extremeness" [ "priority-not-extreme" ]
    (lbls [ mk (Audit.Pseudo_leaf { size = 2; priority = Some 3; extreme = false }) ]);
  check "box consistency" [ "box-mismatch" ]
    (lbls [ mk ~box_ok:false (Audit.Pseudo_node { degree = 2 }) ]);
  check "empty node" [ "empty-node" ] (lbls [ mk (Audit.Pseudo_node { degree = 0 }) ])

(* --- mutation: one corrupted byte, one named violation --- *)

(* A 300-entry PR-tree on 512-byte pages: 22 full-ish leaves, two
   internal nodes above them, height 3 — the root is internal with at
   least two children, which the mutations below rely on. *)
let build_victim () =
  let pool = Helpers.small_pool () in
  let entries = Helpers.random_entries ~n:300 ~seed:42 in
  let tree = Prt_prtree.Prtree.load pool entries in
  Buffer_pool.flush pool;
  (pool, tree)

(* Mutate page [id] below the buffer pool; the cache is emptied first so
   the audit really reads the corrupted bytes. *)
let corrupt pool id f =
  Buffer_pool.drop_clean pool;
  let pager = Buffer_pool.pager pool in
  let buf = Pager.read pager id in
  f buf;
  Pager.write pager id buf

(* Node bytes are addressed through [Node]'s layout offsets only, so
   the mutations follow the page format wherever it puts a field. *)
let coord_off buf i c = Node.coord_offset ~page_size:(Bytes.length buf) i c
let id_off buf i = Node.id_offset ~page_size:(Bytes.length buf) i
let get_f64 buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)
let set_f64 buf off v = Bytes.set_int64_le buf off (Int64.bits_of_float v)

let rec first_leaf tree id =
  let node = Rtree.read_node tree id in
  match Node.kind node with
  | Node.Leaf -> id
  | Node.Internal -> first_leaf tree (Entry.id (Node.entries node).(0))

let test_mutation_decode_error () =
  let pool, tree = build_victim () in
  corrupt pool (Rtree.root tree) (fun buf ->
      Bytes.set buf (Node.kind_offset ~page_size:(Bytes.length buf)) '\007');
  assert_flags tree "decode-error"

let test_mutation_count_mismatch () =
  let pool, tree = build_victim () in
  let leaf = first_leaf tree (Rtree.root tree) in
  corrupt pool leaf (fun buf ->
      let off = Node.count_offset ~page_size:(Bytes.length buf) in
      Bytes.set_uint16_le buf off (Bytes.get_uint16_le buf off - 1));
  assert_flags tree "count-mismatch"

let test_mutation_mbr_not_tight () =
  let pool, tree = build_victim () in
  corrupt pool (Rtree.root tree) (fun buf ->
      let off = coord_off buf 0 Node.Xmax in
      set_f64 buf off (get_f64 buf off +. 1.0));
  assert_flags tree "mbr-not-tight"

let test_mutation_mbr_not_contained () =
  let pool, tree = build_victim () in
  corrupt pool (Rtree.root tree) (fun buf ->
      let xmin = get_f64 buf (coord_off buf 0 Node.Xmin)
      and xmax = get_f64 buf (coord_off buf 0 Node.Xmax) in
      (* Shrink the recorded box: it was tight, so the child's exact box
         now escapes it. *)
      set_f64 buf (coord_off buf 0 Node.Xmax) ((xmin +. xmax) /. 2.0));
  assert_flags tree "mbr-not-contained"

let test_mutation_page_shared () =
  let pool, tree = build_victim () in
  corrupt pool (Rtree.root tree) (fun buf ->
      Bytes.set_int32_le buf (id_off buf 1) (Bytes.get_int32_le buf (id_off buf 0)));
  assert_flags tree "page-shared"

let test_mutation_leaf_depth () =
  let pool, tree = build_victim () in
  let leaf = first_leaf tree (Rtree.root tree) in
  (* Point a root entry straight at a grandchild leaf: it now sits at
     depth 2 in a height-3 tree. *)
  corrupt pool (Rtree.root tree) (fun buf ->
      Bytes.set_int32_le buf (id_off buf 0) (Int32.of_int leaf));
  assert_flags tree "leaf-depth"

(* Page order: the victim's leaves audit clean as built; swapping two
   entries of one leaf on disk — every column and the id — keeps the
   same entries and box, so only the order is wrong, and it is named. *)
let test_mutation_unsorted_node () =
  let pool, tree = build_victim () in
  let pristine = Audit.check tree in
  if not (Audit.ok pristine) then
    Alcotest.failf "the pristine PR-tree does not audit clean: %a" Audit.pp_report pristine;
  let leaf = first_leaf tree (Rtree.root tree) in
  corrupt pool leaf (fun buf ->
      let swap off width =
        let a = Bytes.sub buf (off 0) width in
        Bytes.blit buf (off 1) buf (off 0) width;
        Bytes.blit a 0 buf (off 1) width
      in
      List.iter (fun c -> swap (fun i -> coord_off buf i c) 8) Node.[ Xmin; Ymin; Xmax; Ymax ];
      swap (id_off buf) 4);
  let r = Audit.check tree in
  Alcotest.(check (list string)) "the one violation" [ "unsorted-node" ] (labels r);
  Alcotest.(check (list string))
    "on the swapped leaf"
    [ Printf.sprintf "page %d" leaf ]
    (List.map (fun v -> v.Audit.where) r.Audit.violations)

(* The same in three dimensions, where the generic kernel's cut-off
   relies on the order too: a 3-D PR-tree audits clean as built, and
   swapping two entries of one leaf — its six columns and the id, found
   through [Node]'s offsets for d = 3 — is named by the audit, on that
   page only, and by [Rtree_nd.validate]. *)
let test_mutation_unsorted_node_nd () =
  let dims = 3 in
  let pool = Helpers.small_pool () in
  let tree = Prt_ndtree.Prtree_nd.load ~dims pool (random_entries_nd ~dims ~n:300 ~seed:43) in
  Buffer_pool.flush pool;
  let pristine = Audit_nd.check ~check_leaks:true tree in
  if not (Audit.ok pristine) then
    Alcotest.failf "the pristine 3-D PR-tree does not audit clean: %a" Audit.pp_report pristine;
  let rec first_leaf id =
    let node = Prt_ndtree.Rtree_nd.read_node tree id in
    match Prt_ndtree.Node_nd.kind node with
    | Prt_ndtree.Node_nd.Leaf -> id
    | Prt_ndtree.Node_nd.Internal ->
        first_leaf (Prt_ndtree.Entry_nd.id (Prt_ndtree.Node_nd.entries node).(0))
  in
  let leaf = first_leaf (Prt_ndtree.Rtree_nd.root tree) in
  corrupt pool leaf (fun buf ->
      let page_size = Bytes.length buf in
      let swap off width =
        let a = Bytes.sub buf (off 0) width in
        Bytes.blit buf (off 1) buf (off 0) width;
        Bytes.blit a 0 buf (off 1) width
      in
      for k = 0 to (2 * dims) - 1 do
        swap (fun i -> Node.column_offset ~page_size ~dims k i) 8
      done;
      swap (Node.id_offset_nd ~page_size ~dims) 4);
  let r = Audit_nd.check ~check_leaks:true tree in
  Alcotest.(check (list string)) "the one violation" [ "unsorted-node" ] (labels r);
  Alcotest.(check (list string))
    "on the swapped leaf"
    [ Printf.sprintf "page %d" leaf ]
    (List.map (fun v -> v.Audit.where) r.Audit.violations);
  match Prt_ndtree.Rtree_nd.validate tree with
  | _ -> Alcotest.fail "Rtree_nd.validate accepted the unsorted leaf"
  | exception Prt_ndtree.Rtree_nd.Invalid reason ->
      Alcotest.(check string)
        "validate names it" "unsorted-node"
        (String.sub reason 0 (min (String.length reason) 13))

let test_mutation_page_leaked () =
  let pool, tree = build_victim () in
  Buffer_pool.drop_clean pool;
  ignore (Pager.alloc (Buffer_pool.pager pool));
  assert_flags ~check_leaks:true tree "page-leaked"

let test_mutation_freed_page_reachable () =
  let pool, tree = build_victim () in
  let leaf = first_leaf tree (Rtree.root tree) in
  Buffer_pool.drop_clean pool;
  Pager.free (Buffer_pool.pager pool) leaf;
  assert_flags tree "freed-page-reachable"

let suite =
  [
    Alcotest.test_case "all in-memory variants audit clean (sizes x pages)" `Quick
      test_variants_audit_clean;
    Alcotest.test_case "external PR build audits clean" `Quick test_ext_build_audits_clean;
    Alcotest.test_case "dynamic tree and kdB-tree audit clean" `Quick
      test_dynamic_and_kdb_audit_clean;
    Alcotest.test_case "empty tree audits clean" `Quick test_empty_tree_audits_clean;
    Alcotest.test_case "fill-factor floors hold for STR" `Quick test_fill_factor_floors;
    Alcotest.test_case "nd PR-trees audit clean (3-d, 4-d)" `Quick test_ndtree_audits_clean;
    Alcotest.test_case "pseudo-trees audit clean (2-d, 3-d)" `Quick test_pseudo_trees_audit_clean;
    Alcotest.test_case "check_pseudo catalogue" `Quick test_check_pseudo_catalogue;
    Alcotest.test_case "mutation: bad kind byte -> decode-error" `Quick test_mutation_decode_error;
    Alcotest.test_case "mutation: leaf count -> count-mismatch" `Quick
      test_mutation_count_mismatch;
    Alcotest.test_case "mutation: grown MBR -> mbr-not-tight" `Quick test_mutation_mbr_not_tight;
    Alcotest.test_case "mutation: shrunk MBR -> mbr-not-contained" `Quick
      test_mutation_mbr_not_contained;
    Alcotest.test_case "mutation: duplicated child -> page-shared" `Quick
      test_mutation_page_shared;
    Alcotest.test_case "mutation: shortcut to leaf -> leaf-depth" `Quick test_mutation_leaf_depth;
    Alcotest.test_case "mutation: swapped leaf entries -> unsorted-node" `Quick
      test_mutation_unsorted_node;
    Alcotest.test_case "mutation: swapped 3-d leaf entries -> unsorted-node" `Quick
      test_mutation_unsorted_node_nd;
    Alcotest.test_case "mutation: stray allocation -> page-leaked" `Quick
      test_mutation_page_leaked;
    Alcotest.test_case "mutation: freed leaf -> freed-page-reachable" `Quick
      test_mutation_freed_page_reachable;
  ]
