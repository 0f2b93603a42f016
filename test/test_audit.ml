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
   report.  Each mutation runs on a 2-D and a 3-D tree.  The bytes
   being poked are found through [Node]'s layout offsets for the tree's
   dimension (kind byte, count, coordinate [i] of a column, id [i]), so
   the mutations follow the page format.  One more flips a byte of an
   index file, below the pager: the page fails its trailer check, and
   the audit names it too. *)

module Rng = Prt_util.Rng
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Audit = Prt_rtree.Audit
module Audit_nd = Prt_ndtree.Audit_nd
module Rtree_nd = Prt_ndtree.Rtree_nd
module Index_file = Prt_rtree.Index_file

let labels (r : Audit.report) = List.map (fun v -> Audit.label v.Audit.what) r.Audit.violations

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
      let r = Rtree_nd.audit ~check_leaks:true tree in
      if not (Audit.ok r) then
        Alcotest.failf "ndtree dims=%d audit failed: %a" dims Audit.pp_report r)
    [ 3; 4 ]

let test_pseudo_trees_audit_clean () =
  let entries = Helpers.random_entries ~n:200 ~seed:9 in
  Helpers.check_no_violations (Prt_prtree.Pseudo.audit ~b:14 (Prt_prtree.Pseudo.build ~b:14 entries));
  let entries_nd = random_entries_nd ~dims:3 ~n:200 ~seed:10 in
  Helpers.check_no_violations
    (Audit_nd.check_pseudo ~b:14 ~dims:3 (Prt_ndtree.Pseudo_nd.build ~b:14 ~dims:3 entries_nd))

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

(* A built tree on 512-byte pages, flushed, with its audit and validate
   at its dimension.  At d = 2, 300 entries make a PR-tree of 22
   full-ish leaves under two internal nodes; at d = 3 (9 entries a
   page), one of 34 leaves under four.  Both have height 3 and an
   internal root with at least two children, which the mutations below
   rely on. *)
type victim = {
  pool : Buffer_pool.t;
  dims : int;
  root : int;
  audit : ?check_leaks:bool -> unit -> Audit.report;
  validate : unit -> Audit.report;
}

let victim_2d () =
  let pool = Helpers.small_pool () in
  let tree = Prt_prtree.Prtree.load pool (Helpers.random_entries ~n:300 ~seed:42) in
  Buffer_pool.flush pool;
  {
    pool;
    dims = 2;
    root = Rtree.root tree;
    audit = (fun ?check_leaks () -> Audit.check ?check_leaks tree);
    validate = (fun () -> Audit.validate tree);
  }

let victim_3d () =
  let pool = Helpers.small_pool () in
  let tree =
    Prt_ndtree.Prtree_nd.load ~dims:3 pool (random_entries_nd ~dims:3 ~n:300 ~seed:43)
  in
  Buffer_pool.flush pool;
  {
    pool;
    dims = 3;
    root = Rtree_nd.root tree;
    audit = (fun ?check_leaks () -> Rtree_nd.audit ?check_leaks tree);
    validate = (fun () -> Rtree_nd.validate tree);
  }

let each_victim f = List.iter (fun build -> f (build ())) [ victim_2d; victim_3d ]

let assert_flags ?check_leaks v expected =
  let r = v.audit ?check_leaks () in
  if not (List.mem expected (labels r)) then
    Alcotest.failf "d = %d: expected a %s violation; audit said: %a" v.dims expected
      Audit.pp_report r

(* Mutate page [id] below the buffer pool; the cache is emptied first so
   the audit really reads the corrupted bytes. *)
let corrupt v id f =
  Buffer_pool.drop_clean v.pool;
  let pager = Buffer_pool.pager v.pool in
  let buf = Pager.read pager id in
  f buf;
  Pager.write pager id buf

(* Node bytes are addressed through [Node]'s layout offsets only, so
   the mutations follow the page format wherever it puts a field.
   Column [dims] holds hi_0 (xmax in 2-D). *)
let column v buf k i = Node.column_offset ~page_size:(Bytes.length buf) ~dims:v.dims k i
let id_off v buf i = Node.id_offset_nd ~page_size:(Bytes.length buf) ~dims:v.dims i
let get_f64 buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)
let set_f64 buf off v = Bytes.set_int64_le buf off (Int64.bits_of_float v)

let rec first_leaf ~dims pool id =
  let buf = Buffer_pool.read pool id in
  match Node.page_kind_nd ~dims buf with
  | Node.Leaf -> id
  | Node.Internal ->
      let off = Node.id_offset_nd ~page_size:(Bytes.length buf) ~dims 0 in
      first_leaf ~dims pool (Int32.to_int (Bytes.get_int32_le buf off))

let leaf_of v = first_leaf ~dims:v.dims v.pool v.root

let test_mutation_decode_error () =
  each_victim (fun v ->
      corrupt v v.root (fun buf ->
          Bytes.set buf (Node.kind_offset_nd ~page_size:(Bytes.length buf) ~dims:v.dims) '\007');
      assert_flags v "decode-error")

let test_mutation_count_mismatch () =
  each_victim (fun v ->
      corrupt v (leaf_of v) (fun buf ->
          let off = Node.count_offset_nd ~page_size:(Bytes.length buf) ~dims:v.dims in
          Bytes.set_uint16_le buf off (Bytes.get_uint16_le buf off - 1));
      assert_flags v "count-mismatch")

let test_mutation_mbr_not_tight () =
  each_victim (fun v ->
      corrupt v v.root (fun buf ->
          let off = column v buf v.dims 0 in
          set_f64 buf off (get_f64 buf off +. 1.0));
      assert_flags v "mbr-not-tight")

let test_mutation_mbr_not_contained () =
  each_victim (fun v ->
      corrupt v v.root (fun buf ->
          let lo = get_f64 buf (column v buf 0 0) and hi = get_f64 buf (column v buf v.dims 0) in
          (* Shrink the recorded box: it was tight, so the child's exact
             box now escapes it. *)
          set_f64 buf (column v buf v.dims 0) ((lo +. hi) /. 2.0));
      assert_flags v "mbr-not-contained")

let test_mutation_page_shared () =
  each_victim (fun v ->
      corrupt v v.root (fun buf ->
          Bytes.set_int32_le buf (id_off v buf 1) (Bytes.get_int32_le buf (id_off v buf 0)));
      assert_flags v "page-shared")

let test_mutation_leaf_depth () =
  each_victim (fun v ->
      let leaf = leaf_of v in
      (* Point a root entry straight at a grandchild leaf: it now sits at
         depth 2 in a height-3 tree. *)
      corrupt v v.root (fun buf -> Bytes.set_int32_le buf (id_off v buf 0) (Int32.of_int leaf));
      assert_flags v "leaf-depth")

(* Page order: the victim's leaves audit clean as built; swapping two
   entries of one leaf on disk — every column and the id — keeps the
   same entries and box, so only the order is wrong, and it is named,
   on that page only, by the audit and by validate. *)
let swapped_leaf_named v =
  let pristine = v.audit ~check_leaks:true () in
  if not (Audit.ok pristine) then
    Alcotest.failf "the pristine d = %d tree does not audit clean: %a" v.dims Audit.pp_report
      pristine;
  let leaf = leaf_of v in
  corrupt v leaf (fun buf ->
      let swap off width =
        let a = Bytes.sub buf (off 0) width in
        Bytes.blit buf (off 1) buf (off 0) width;
        Bytes.blit a 0 buf (off 1) width
      in
      for k = 0 to (2 * v.dims) - 1 do
        swap (column v buf k) 8
      done;
      swap (id_off v buf) 4);
  let r = v.audit ~check_leaks:true () in
  Alcotest.(check (list string)) "the one violation" [ "unsorted-node" ] (labels r);
  Alcotest.(check (list string))
    "on the swapped leaf"
    [ Printf.sprintf "page %d" leaf ]
    (List.map (fun v -> v.Audit.where) r.Audit.violations);
  match v.validate () with
  | _ -> Alcotest.failf "d = %d: validate accepted the unsorted leaf" v.dims
  | exception Audit.Invalid bad ->
      Alcotest.(check string) "validate names it" "unsorted-node" (Audit.label bad.Audit.what)

let test_mutation_unsorted_node () = swapped_leaf_named (victim_2d ())

(* The same in three dimensions, where the generic kernel's cut-off
   relies on the order too. *)
let test_mutation_unsorted_node_nd () = swapped_leaf_named (victim_3d ())

let test_mutation_page_leaked () =
  each_victim (fun v ->
      Buffer_pool.drop_clean v.pool;
      ignore (Pager.alloc (Buffer_pool.pager v.pool));
      assert_flags ~check_leaks:true v "page-leaked")

let test_mutation_freed_page_reachable () =
  each_victim (fun v ->
      let leaf = leaf_of v in
      Buffer_pool.drop_clean v.pool;
      Pager.free (Buffer_pool.pager v.pool) leaf;
      assert_flags v "freed-page-reachable")

(* A page the pager refuses: one payload byte of a leaf of an index file
   flipped on disk, so the page fails its trailer check on read.  The
   audit names that page [decode-error] instead of letting
   [Pager.Corrupt_page] escape, and validate raises naming it. *)
let test_mutation_torn_page () =
  let path = Filename.temp_file "prt_audit" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let page_size = Helpers.small_page_size in
      let idx =
        Index_file.create ~page_size path ~build:(fun pool ->
            Prt_prtree.Prtree.load pool (Helpers.random_entries ~n:300 ~seed:42))
      in
      let leaf = first_leaf ~dims:2 (Index_file.pool idx) (Rtree.root (Index_file.tree idx)) in
      Index_file.close idx;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let byte = Bytes.create 1 in
      ignore (Unix.lseek fd (leaf * page_size) Unix.SEEK_SET);
      ignore (Unix.read fd byte 0 1);
      Bytes.set_uint8 byte 0 (Bytes.get_uint8 byte 0 lxor 0xff);
      ignore (Unix.lseek fd (leaf * page_size) Unix.SEEK_SET);
      ignore (Unix.write fd byte 0 1);
      Unix.close fd;
      let idx = Index_file.open_ ~page_size path in
      Fun.protect
        ~finally:(fun () -> Index_file.close idx)
        (fun () ->
          let named = ("decode-error", Printf.sprintf "page %d" leaf) in
          let r = Audit.check (Index_file.tree idx) in
          let found =
            List.map (fun v -> (Audit.label v.Audit.what, v.Audit.where)) r.Audit.violations
          in
          if not (List.mem named found) then
            Alcotest.failf "the audit did not name torn page %d: %a" leaf Audit.pp_report r;
          match Audit.validate (Index_file.tree idx) with
          | _ -> Alcotest.fail "validate accepted a torn page"
          | exception Audit.Invalid bad ->
              Alcotest.(check (pair string string))
                "validate names it" named
                (Audit.label bad.Audit.what, bad.Audit.where)))

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
    Alcotest.test_case "mutation: torn page -> decode-error" `Quick test_mutation_torn_page;
  ]
