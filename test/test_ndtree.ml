(* d-dimensional PR-tree tests: codec roundtrips, pseudo-tree structure,
   exact query answers against a brute-force oracle in 3 and 4
   dimensions, the (N/B)^(1-1/d) flavour of the worst-case bound, and
   the one page format and one descent: at d = 2 the d-D tree's pages
   are the 2-D tree's byte for byte, and in every dimension the engine's
   answers and visit counts match a brute-force scan and a reference
   walk over decoded nodes. *)

module Rect = Prt_geom.Rect
module Hyperrect = Prt_geom.Hyperrect
module Rng = Prt_util.Rng
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Entry_nd = Prt_ndtree.Entry_nd
module Node_nd = Prt_ndtree.Node_nd
module Rtree_nd = Prt_ndtree.Rtree_nd
module Pseudo_nd = Prt_ndtree.Pseudo_nd
module Prtree_nd = Prt_ndtree.Prtree_nd
module Audit = Prt_rtree.Audit

let random_box ~dims rng =
  let lo = Array.init dims (fun _ -> Rng.float rng 1.0) in
  let hi = Array.mapi (fun _ v -> Float.min 1.0 (v +. Rng.float rng 0.2)) lo in
  Hyperrect.make ~lo ~hi

let random_entries ~dims ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i -> Entry_nd.make (random_box ~dims rng) i)

let brute_force entries window =
  Array.to_list entries
  |> List.filter (fun e -> Hyperrect.intersects (Entry_nd.box e) window)
  |> List.map Entry_nd.id
  |> List.sort Int.compare

let ids_of result = List.sort Int.compare (List.map Entry_nd.id result)

let test_entry_codec () =
  List.iter
    (fun dims ->
      let rng = Rng.create dims in
      let e = Entry_nd.make (random_box ~dims rng) 4242 in
      let buf = Bytes.create 256 in
      Entry_nd.write ~dims buf 11 e;
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip dims=%d" dims)
        true
        (Entry_nd.equal e (Entry_nd.read ~dims buf 11)))
    [ 1; 2; 3; 4; 5 ]

let test_entry_size_matches_2d () =
  Alcotest.(check int) "d=2 record is the paper's 36 bytes" 36 (Entry_nd.size ~dims:2);
  (* And the 4 KB fanout for 3-D. *)
  Alcotest.(check int) "3-D fanout" ((4096 - 16 - 3) / 52) (Node_nd.capacity ~page_size:4096 ~dims:3)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Equal ids and boxes, bit for bit ([Entry_nd.equal] takes -0.0 for
   0.0). *)
let same_entry a b =
  let x = Entry_nd.box a and y = Entry_nd.box b in
  let d = Hyperrect.dims x in
  Entry_nd.id a = Entry_nd.id b
  && Hyperrect.dims y = d
  && List.for_all
       (fun k ->
         same_bits (Hyperrect.lo x k) (Hyperrect.lo y k)
         && same_bits (Hyperrect.hi x k) (Hyperrect.hi y k))
       (List.init d Fun.id)

let by_id l = List.sort (fun a b -> Int.compare (Entry_nd.id a) (Entry_nd.id b)) l

(* The page holds the node's entries, as a multiset, in page order;
   the node's own array is left as it was. *)
let test_node_codec () =
  let dims = 3 in
  let entries = random_entries ~dims ~n:9 ~seed:1 in
  let given = Array.copy entries in
  Alcotest.(check bool) "input not in page order" false (Node_nd.in_page_order entries);
  let node = Node_nd.make Node_nd.Internal entries in
  let decoded = Node_nd.decode ~dims (Node_nd.encode ~page_size:512 ~dims node) in
  Alcotest.(check int) "count" 9 (Node_nd.length decoded);
  Alcotest.(check bool) "kind" true (Node_nd.kind decoded = Node_nd.Internal);
  Alcotest.(check bool)
    "decoded in page order" true
    (Node_nd.in_page_order (Node_nd.entries decoded));
  Alcotest.(check bool)
    "the node's array is not reordered" true
    (Array.for_all2 ( == ) given entries);
  Alcotest.(check bool)
    "the same entries" true
    (List.for_all2 same_entry
       (by_id (Array.to_list entries))
       (by_id (Array.to_list (Node_nd.entries decoded))))

let b = 9 (* 512-byte pages with 3-D entries: (512-3)/52 = 9 *)

let test_pseudo_nd_structure () =
  let dims = 3 in
  List.iter
    (fun n ->
      let entries = random_entries ~dims ~n ~seed:n in
      let t = Pseudo_nd.build ~b ~dims entries in
      Helpers.check_no_violations (Prt_ndtree.Audit_nd.check_pseudo ~b ~dims t);
      Alcotest.(check int) "size" n (Pseudo_nd.size t);
      let ids =
        Pseudo_nd.leaves t
        |> List.concat_map (fun arr -> Array.to_list (Array.map Entry_nd.id arr))
        |> List.sort Int.compare
      in
      Alcotest.(check (list int)) "partition" (List.init n Fun.id) ids)
    [ 1; 9; 10; 100; 400 ]

let check_tree_queries ~dims tree entries ~seed =
  let rng = Rng.create seed in
  for _ = 1 to 30 do
    let window = random_box ~dims rng in
    let result, _ = Rtree_nd.query_list tree window in
    Alcotest.(check (list int)) "query vs oracle" (brute_force entries window) (ids_of result)
  done

let small_pool () =
  Prt_storage.Buffer_pool.create ~capacity:4096 (Prt_storage.Pager.create_memory ~page_size:512 ())

let test_prtree_nd_3d () =
  List.iter
    (fun n ->
      let dims = 3 in
      let entries = random_entries ~dims ~n ~seed:(n + 5) in
      let tree = Prtree_nd.load ~dims (small_pool ()) entries in
      let s = Rtree_nd.validate tree in
      Alcotest.(check int) "entries" n s.Audit.entries;
      check_tree_queries ~dims tree entries ~seed:(n * 3))
    [ 0; 1; 9; 10; 200; 800 ]

let test_prtree_nd_4d () =
  let dims = 4 in
  let entries = random_entries ~dims ~n:500 ~seed:77 in
  let tree = Prtree_nd.load ~dims (small_pool ()) entries in
  ignore (Rtree_nd.validate tree);
  check_tree_queries ~dims tree entries ~seed:78

let test_prtree_nd_1d () =
  (* Degenerate: 1-D interval trees still work. *)
  let dims = 1 in
  let entries = random_entries ~dims ~n:300 ~seed:12 in
  let tree = Prtree_nd.load ~dims (small_pool ()) entries in
  ignore (Rtree_nd.validate tree);
  check_tree_queries ~dims tree entries ~seed:13

let test_dimension_mismatch () =
  let tree = Prtree_nd.load ~dims:3 (small_pool ()) (random_entries ~dims:3 ~n:50 ~seed:2) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rtree_nd.query_count tree (Hyperrect.point [| 0.5; 0.5 |]));
       false
     with Invalid_argument _ -> true)

let test_leaves_same_level () =
  let dims = 3 in
  let entries = random_entries ~dims ~n:700 ~seed:4 in
  let tree = Prtree_nd.load ~dims (small_pool ()) entries in
  (* validate already checks leaf depths; make sure it runs deep. *)
  let s = Rtree_nd.validate tree in
  Alcotest.(check bool) "multi-level" true (s.Audit.nodes > s.Audit.leaves)

(* In 3-D the guarantee is O((N/B)^(2/3) + T/B): slab queries with tiny
   output must visit far fewer leaves than the whole tree as N grows. *)
let test_bound_3d_flavour () =
  let dims = 3 in
  let visits n =
    let rng = Rng.create 91 in
    let entries =
      Array.init n (fun i ->
          Entry_nd.make (Hyperrect.point (Array.init dims (fun _ -> Rng.float rng 1.0))) i)
    in
    let tree = Prtree_nd.load ~dims (small_pool ()) entries in
    let total_leaves = (Rtree_nd.validate tree).Audit.leaves in
    (* A thin slab: zero-volume plane through the cube. *)
    let window =
      Hyperrect.make ~lo:[| 0.0; 0.0; 0.5 |] ~hi:[| 1.0; 1.0; 0.5 |]
    in
    let stats = Rtree_nd.query_count tree window in
    (stats.Rtree_nd.leaf_visited, total_leaves)
  in
  let visited, total = visits 6000 in
  (* (N/B)^(2/3) with N/B = 667 gives ~76; allow generous constant but
     demand clearly sublinear behaviour. *)
  Alcotest.(check bool)
    (Printf.sprintf "sublinear: %d of %d leaves" visited total)
    true
    (visited * 2 < total)

(* A query issued from inside a query's callback must not disturb the
   descent that called it: each callback on tree [a] queries tree [b],
   and the outer answer must equal the plain one.  The callback-count
   guard turns a clobbered stack into a failure rather than a hang. *)
let test_reentrant_query () =
  let dims = 3 in
  let a = Prtree_nd.load ~dims (small_pool ()) (random_entries ~dims ~n:2000 ~seed:60) in
  let b = Prtree_nd.load ~dims (small_pool ()) (random_entries ~dims ~n:2000 ~seed:61) in
  let rng = Rng.create 62 in
  for _ = 1 to 20 do
    let window = random_box ~dims rng in
    let plain, plain_stats = Rtree_nd.query_list a window in
    let limit = List.length plain in
    let seen = ref [] and calls = ref 0 in
    let stats =
      Rtree_nd.query a window ~f:(fun e ->
          incr calls;
          if !calls > limit then failwith "callback ran more often than the answer has entries";
          seen := Entry_nd.id e :: !seen;
          ignore (Rtree_nd.query_count b window))
    in
    Alcotest.(check (list int)) "outer answer" (List.map Entry_nd.id plain) (List.rev !seen);
    Alcotest.(check int) "outer leaves" plain_stats.Rtree_nd.leaf_visited stats.Rtree_nd.leaf_visited;
    Alcotest.(check int) "outer internal" plain_stats.Rtree_nd.internal_visited
      stats.Rtree_nd.internal_visited
  done

(* --- one page format: d = 2 is the 2-D page --- *)

let nd_of_entry e = Entry_nd.make (Hyperrect.of_rect (Entry.rect e)) (Entry.id e)

(* 2-D rectangles with repeated xmins, signed zeros and infinities among
   the random ones, so ties reach every tie-break of page order. *)
let tied_entries ~n ~seed =
  let rng = Rng.create seed in
  let special = [| 0.0; -0.0; 0.5; infinity; neg_infinity |] in
  let coord () =
    if Rng.float rng 1.0 < 0.3 then special.(Rng.int rng (Array.length special))
    else Rng.float rng 1.0
  in
  Array.init n (fun i -> Entry.make (Rect.of_corners (coord (), coord ()) (coord (), coord ())) i)

let test_node_codec_d2_identity () =
  List.iter
    (fun page_size ->
      let cap = Node.capacity ~page_size in
      Alcotest.(check int) "capacity" cap (Node_nd.capacity ~page_size ~dims:2);
      Alcotest.(check (list int))
        "offsets of the last slot: four columns, id, kind, count"
        (List.map (Node.coord_offset ~page_size (cap - 1)) Node.[ Xmin; Ymin; Xmax; Ymax ]
        @ [
            Node.id_offset ~page_size (cap - 1);
            Node.kind_offset ~page_size;
            Node.count_offset ~page_size;
          ])
        (List.map (fun k -> Node.column_offset ~page_size ~dims:2 k (cap - 1)) [ 0; 1; 2; 3 ]
        @ [
            Node.id_offset_nd ~page_size ~dims:2 (cap - 1);
            Node.kind_offset_nd ~page_size ~dims:2;
            Node.count_offset_nd ~page_size ~dims:2;
          ]);
      List.iter
        (fun n ->
          List.iter
            (fun kind ->
              let entries = tied_entries ~n ~seed:(page_size + n) in
              let two = Node.encode ~page_size (Node.make kind (Array.copy entries)) in
              let nd_node = Node_nd.make kind (Array.map nd_of_entry entries) in
              let nd = Node_nd.encode ~page_size ~dims:2 nd_node in
              if not (Bytes.equal two nd) then
                Alcotest.failf "page size %d, %d entries: Node_nd's page differs from Node's"
                  page_size n)
            [ Node.Leaf; Node.Internal ])
        [ 0; 1; cap / 2; cap ])
    [ 128; 512; 4096 ]

let pool_pages pool =
  let pager = Buffer_pool.pager pool in
  Array.init (Pager.num_pages pager) (fun id -> Buffer_pool.read pool id)

(* The d-D PR-tree at d = 2 and the 2-D PR-tree over the same
   rectangles: the same root, height and count, and every page image
   the same bytes. *)
let test_prtree_d2_identity () =
  List.iter
    (fun (n, entries) ->
      let two_pool = Helpers.default_pool () and nd_pool = Helpers.default_pool () in
      let two = Prt_prtree.Prtree.load two_pool entries in
      let nd = Prtree_nd.load ~dims:2 nd_pool (Array.map nd_of_entry entries) in
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d: root, height, count" n)
        [ Prt_rtree.Rtree.root two; Prt_rtree.Rtree.height two; Prt_rtree.Rtree.count two ]
        [ Rtree_nd.root nd; Rtree_nd.height nd; Rtree_nd.count nd ];
      let a = pool_pages two_pool and b = pool_pages nd_pool in
      Alcotest.(check int) (Printf.sprintf "n=%d: pages" n) (Array.length a) (Array.length b);
      Array.iteri
        (fun id page ->
          if not (Bytes.equal page b.(id)) then Alcotest.failf "n=%d: page %d differs" n id)
        a)
    [
      (1_000, Helpers.random_entries ~n:1_000 ~seed:1);
      (1_000, tied_entries ~n:1_000 ~seed:2);
      (20_000, Helpers.random_entries ~n:20_000 ~seed:3);
      (100_000, Helpers.random_entries ~n:100_000 ~seed:4);
    ]

(* --- one descent: the engine against brute force and a reference walk --- *)

(* Every node the descent must visit, in preorder with children in page
   order: the entries that pass, and the leaf and internal visits. *)
let reference_walk tree window =
  let hits = ref [] and leaves = ref 0 and internal = ref 0 in
  let rec visit id =
    let node = Rtree_nd.read_node tree id in
    let passing =
      List.filter
        (fun e -> Hyperrect.intersects (Entry_nd.box e) window)
        (Array.to_list (Node_nd.entries node))
    in
    match Node_nd.kind node with
    | Node_nd.Leaf ->
        incr leaves;
        hits := List.rev_append passing !hits
    | Node_nd.Internal ->
        incr internal;
        List.iter (fun e -> visit (Entry_nd.id e)) passing
  in
  visit (Rtree_nd.root tree);
  (List.rev !hits, !leaves, !internal)

let prop_engine_nd =
  let special = [| 0.0; -0.0; 1.0; infinity; neg_infinity |] in
  let coord = QCheck.Gen.(frequency [ (3, float_range (-10.0) 10.0); (2, oneofa special) ]) in
  let box dims =
    QCheck.Gen.(
      let* a = array_repeat dims coord and* b = array_repeat dims coord in
      return (Hyperrect.make ~lo:(Array.map2 Float.min a b) ~hi:(Array.map2 Float.max a b)))
  in
  let gen =
    QCheck.Gen.(
      let* dims = int_range 1 4 and* page_size = oneofl [ 256; 512; 4096 ] in
      let cap = Node_nd.capacity ~page_size ~dims in
      (* Empty, one full node, full leaves under one root, and ragged. *)
      let* n = oneof [ return 0; return cap; return (cap * cap); int_range 1 400 ] in
      let* boxes = array_repeat n (box dims) and* windows = list_repeat 6 (box dims) in
      return (dims, page_size, Array.mapi (fun i b -> Entry_nd.make b i) boxes, windows))
  in
  let print (dims, page_size, entries, _) =
    Printf.sprintf "d=%d, page size %d, %d entries" dims page_size (Array.length entries)
  in
  QCheck.Test.make ~count:150 ~name:"engine matches brute force and a reference walk (d = 1..4)"
    (QCheck.make ~print gen) (fun (dims, page_size, entries, windows) ->
      let pool = Buffer_pool.create ~capacity:4096 (Pager.create_memory ~page_size ()) in
      let tree = Prtree_nd.load ~dims pool entries in
      ignore (Rtree_nd.validate tree);
      List.for_all
        (fun w ->
          let got, stats = Rtree_nd.query_list tree w in
          let walked, leaves, internal = reference_walk tree w in
          let brute =
            List.filter (fun e -> Hyperrect.intersects (Entry_nd.box e) w) (Array.to_list entries)
          in
          if List.length got <> List.length walked || not (List.for_all2 same_entry got walked)
          then QCheck.Test.fail_reportf "answer differs from the reference walk's, in order";
          if not (List.for_all2 same_entry (by_id got) (by_id brute)) then
            QCheck.Test.fail_reportf "answer differs from brute force: %d vs %d entries"
              (List.length got) (List.length brute);
          stats.Rtree_nd.leaf_visited = leaves
          && stats.Rtree_nd.internal_visited = internal
          && stats.Rtree_nd.matched = List.length got)
        windows)

(* The generic kernel allocates nothing per node or entry: after a
   warm-up, a zero-output slab query that visits many nodes allocates
   no more than a query that visits one node does, plus what the
   buffer pool allocates to serve the extra page reads (measured here
   on the root page, cached like every page of the tree). *)
let test_generic_kernel_allocation () =
  let dims = 3 in
  let rng = Rng.create 93 in
  let entries =
    Array.init 6000 (fun i ->
        Entry_nd.make (Hyperrect.point (Array.init dims (fun _ -> Rng.float rng 1.0))) i)
  in
  let pool = small_pool () in
  let tree = Prtree_nd.load ~dims pool entries in
  let words f =
    ignore (f ());
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let r = f () in
    Gc.minor ();
    (Gc.minor_words () -. w0, r)
  in
  let per_read, () =
    words (fun () ->
        for _ = 1 to 100 do
          ignore (Buffer_pool.read pool (Rtree_nd.root tree))
        done)
  in
  let query window =
    let w, s = words (fun () -> Rtree_nd.query_count tree window) in
    (w, s.Rtree_nd.leaf_visited + s.Rtree_nd.internal_visited, s.Rtree_nd.matched)
  in
  let slab_words, slab_nodes, matched =
    query (Hyperrect.make ~lo:[| 0.0; 0.0; 0.5 |] ~hi:[| 1.0; 1.0; 0.5 |])
  and miss_words, miss_nodes, _ = query (Hyperrect.point [| 5.0; 5.0; 5.0 |]) in
  Alcotest.(check bool)
    (Printf.sprintf "the slab visits many nodes (%d) and matches nothing (%d)" slab_nodes matched)
    true
    (slab_nodes > 50 && matched = 0 && miss_nodes = 1);
  let reads = per_read /. 100.0 *. float_of_int (slab_nodes - miss_nodes) in
  if slab_words > miss_words +. reads then
    Alcotest.failf "%.0f words for %d nodes, %.0f for one node, page reads %.0f" slab_words
      slab_nodes miss_words reads

let suite =
  [
    Alcotest.test_case "entry codec across dims" `Quick test_entry_codec;
    Alcotest.test_case "record sizes" `Quick test_entry_size_matches_2d;
    Alcotest.test_case "node codec" `Quick test_node_codec;
    Alcotest.test_case "pseudo-nd structure" `Quick test_pseudo_nd_structure;
    Alcotest.test_case "prtree-nd 3d queries" `Quick test_prtree_nd_3d;
    Alcotest.test_case "prtree-nd 4d queries" `Quick test_prtree_nd_4d;
    Alcotest.test_case "prtree-nd 1d queries" `Quick test_prtree_nd_1d;
    Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
    Alcotest.test_case "leaves on one level" `Quick test_leaves_same_level;
    Alcotest.test_case "3d bound flavour" `Quick test_bound_3d_flavour;
    Alcotest.test_case "query from a query callback" `Quick test_reentrant_query;
  ]

(* The d-D tree on the 2-D tree's page format and descent engine. *)
let unified_suite =
  [
    Alcotest.test_case "d=2 node page is the 2-D page" `Quick test_node_codec_d2_identity;
    Alcotest.test_case "d=2 PR-tree is the 2-D PR-tree, page for page" `Quick
      test_prtree_d2_identity;
    Helpers.qcheck_case prop_engine_nd;
    Alcotest.test_case "generic kernel allocates nothing per node" `Quick
      test_generic_kernel_allocation;
  ]
