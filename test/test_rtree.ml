(* R-tree framework tests: entry/node codecs, and for every bulk loader
   (packed Hilbert, 4-D Hilbert, STR, TGS): structural validity, exact
   agreement with a brute-force oracle on random window queries, and the
   near-100% utilization the paper reports for packed loaders. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Pack = Prt_rtree.Pack
module Bulk_hilbert = Prt_rtree.Bulk_hilbert
module Bulk_str = Prt_rtree.Bulk_str
module Bulk_tgs = Prt_rtree.Bulk_tgs
module Audit = Prt_rtree.Audit

(* --- codecs --- *)

let test_entry_codec_roundtrip () =
  let buf = Bytes.create 100 in
  let e = Entry.make (Rect.make ~xmin:(-1.5) ~ymin:0.25 ~xmax:3.75 ~ymax:1e9) 123456 in
  Entry.write buf 7 e;
  Alcotest.(check bool) "roundtrip" true (Entry.equal e (Entry.read buf 7))

let test_entry_size () =
  Alcotest.(check int) "36 bytes, the paper's record" 36 Entry.size;
  (* 4 KB pages must give the paper's fanout of 113. *)
  Alcotest.(check int) "fanout 113" 113 (Node.capacity ~page_size:4096)

let test_entry_compare_dim () =
  let a = Entry.make (Rect.make ~xmin:0.0 ~ymin:5.0 ~xmax:1.0 ~ymax:6.0) 1 in
  let b = Entry.make (Rect.make ~xmin:2.0 ~ymin:3.0 ~xmax:4.0 ~ymax:9.0) 2 in
  Alcotest.(check bool) "xmin order" true (Entry.compare_dim 0 a b < 0);
  Alcotest.(check bool) "ymin order" true (Entry.compare_dim 1 a b > 0);
  Alcotest.(check bool) "xmax order" true (Entry.compare_dim 2 a b < 0);
  Alcotest.(check bool) "ymax order" true (Entry.compare_dim 3 a b < 0);
  (* Identical rectangles order by id. *)
  let c = Entry.make (Entry.rect a) 9 in
  Alcotest.(check bool) "id tiebreak" true (Entry.compare_dim 0 a c < 0)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Equal ids and coordinates bit for bit ([Entry.equal] takes -0.0 for
   0.0). *)
let same_entry a b =
  let r = Entry.rect a and r' = Entry.rect b in
  Entry.id a = Entry.id b
  && same_bits (Rect.xmin r) (Rect.xmin r')
  && same_bits (Rect.ymin r) (Rect.ymin r')
  && same_bits (Rect.xmax r) (Rect.xmax r')
  && same_bits (Rect.ymax r) (Rect.ymax r')

(* The entries [encode] writes: a page-ordered copy (stable, so an
   array already in page order is written as it is). *)
let page_ordered entries =
  let sorted = Array.copy entries in
  Array.stable_sort Node.page_compare sorted;
  sorted

let test_node_codec_roundtrip () =
  let cap = Node.capacity ~page_size:Helpers.small_page_size in
  let entries = Helpers.random_entries ~n:cap ~seed:5 in
  let given = Array.copy entries in
  Alcotest.(check bool) "input not in page order" false (Node.in_page_order entries);
  let node = Node.make Node.Leaf entries in
  let decoded = Node.decode (Node.encode ~page_size:Helpers.small_page_size node) in
  Alcotest.(check int) "count" cap (Node.length decoded);
  Alcotest.(check bool) "kind" true (Node.kind decoded = Node.Leaf);
  Alcotest.(check bool) "decoded in page order" true (Node.in_page_order (Node.entries decoded));
  Alcotest.(check bool)
    "the node's array is not reordered" true
    (Array.for_all2 ( == ) given entries);
  Array.iteri
    (fun i e -> Alcotest.(check bool) "entry" true (Entry.equal e (Node.entries decoded).(i)))
    (page_ordered entries)

let test_node_overflow () =
  let entries = Helpers.random_entries ~n:15 ~seed:5 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Node.encode ~page_size:Helpers.small_page_size (Node.make Node.Leaf entries));
       false
     with Invalid_argument _ -> true)

let test_node_bad_kind () =
  let buf = Bytes.make Helpers.small_page_size '\255' in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Node.decode buf);
       false
     with Invalid_argument _ -> true)

(* Format v4's codec at every page size the suites use: the capacity
   is (payload - 3) / 36 (113 at 4 KB, 3 at 128 bytes), [decode]
   returns the encoded node's entries in page order, each bit for bit
   — signed zeros, infinities and subnormals included, ids over the
   whole int32 range — nothing lands in the integrity trailer, and the
   payload after the header is zero (what salvage tells a node page
   by). *)
let prop_node_codec =
  let page_sizes = [ 64; 128; 512; 4096 ] in
  let special = [| 0.0; -0.0; infinity; neg_infinity; 5e-324; -1e300 |] in
  let coord = QCheck.Gen.(frequency [ (4, float_range (-1e6) 1e6); (1, oneofa special) ]) in
  let entry =
    QCheck.Gen.(
      let* a = coord and* b = coord and* c = coord and* d = coord in
      let* id = int_range (Int32.to_int Int32.min_int) (Int32.to_int Int32.max_int) in
      (* Ordered pairs, so [Rect.make] accepts them. *)
      return
        (Entry.make
           (Rect.make ~xmin:(Float.min a c) ~ymin:(Float.min b d) ~xmax:(Float.max a c)
              ~ymax:(Float.max b d))
           id))
  in
  let gen =
    QCheck.Gen.(
      let* page_size = oneofl page_sizes in
      let* kind = oneofl [ Node.Leaf; Node.Internal ] in
      let* n = int_range 0 (Node.capacity ~page_size) in
      let* entries = array_repeat n entry in
      return (page_size, kind, entries))
  in
  let print (page_size, _, entries) =
    Printf.sprintf "page_size %d, %d entries" page_size (Array.length entries)
  in
  QCheck.Test.make ~count:300 ~name:"node: v4 codec round-trips at every page size"
    (QCheck.make ~print gen) (fun (page_size, kind, entries) ->
      let payload = Prt_storage.Page.payload_size page_size in
      if Node.capacity ~page_size <> (payload - 3) / 36 then
        QCheck.Test.fail_reportf "capacity %d at page size %d" (Node.capacity ~page_size) page_size;
      let buf = Node.encode ~page_size (Node.make kind entries) in
      let node = Node.decode buf in
      if Bytes.length buf <> page_size then QCheck.Test.fail_report "page size changed";
      let trailer = Bytes.sub_string buf payload (page_size - payload) in
      if trailer <> String.make (page_size - payload) '\000' then
        QCheck.Test.fail_report "the codec wrote into the trailer";
      let poked = Bytes.copy buf in
      Bytes.set poked (payload - 1) '\001';
      Node.page_tail_zero buf
      && (not (Node.page_tail_zero poked))
      && Node.kind node = kind
      && Node.length node = Array.length entries
      && Node.in_page_order (Node.entries node)
      && Array.for_all2 same_entry (page_ordered entries) (Node.entries node)
      && Node.page_kind buf = kind
      && Node.page_length buf = Array.length entries)

(* --- loaders --- *)

let loaders =
  [
    ("hilbert2d", fun pool entries -> Bulk_hilbert.load_h pool entries);
    ("hilbert4d", fun pool entries -> Bulk_hilbert.load_h4 pool entries);
    ("str", Bulk_str.load);
    ("tgs", Bulk_tgs.load);
  ]

let test_loader_queries (name, load) () =
  List.iter
    (fun n ->
      let entries = Helpers.random_entries ~n ~seed:(n + 17) in
      let pool = Helpers.small_pool () in
      let tree = load pool entries in
      Alcotest.(check int) (name ^ " count") n (Rtree.count tree);
      let structure = Helpers.check_structure tree in
      Alcotest.(check int) (name ^ " entries") n structure.Audit.entries;
      Helpers.check_tree_queries ~seed:(n * 31) tree entries)
    [ 0; 1; 5; 14; 15; 50; 200; 600 ]

let test_loader_all_leaves_same_level (name, load) () =
  let entries = Helpers.random_entries ~n:400 ~seed:3 in
  let pool = Helpers.small_pool () in
  let tree = load pool entries in
  let depths = ref [] in
  Rtree.iter_nodes tree ~f:(fun ~depth ~id:_ node ->
      if Node.kind node = Node.Leaf then depths := depth :: !depths);
  let unique = List.sort_uniq Int.compare !depths in
  Alcotest.(check int) (name ^ " single leaf depth") 1 (List.length unique);
  Alcotest.(check int) (name ^ " leaf depth = height") (Rtree.height tree) (List.hd unique)

let test_loader_duplicate_rects (name, load) () =
  (* Many identical rectangles: loaders must still produce a valid tree
     and exact query answers. *)
  let r = Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.6 ~ymax:0.6 in
  let entries = Array.init 100 (fun i -> Entry.make r i) in
  let pool = Helpers.small_pool () in
  let tree = load pool entries in
  ignore (Helpers.check_structure tree);
  Helpers.check_query_matches_brute_force tree entries r;
  Helpers.check_query_matches_brute_force tree entries (Rect.point 0.5 0.5);
  Alcotest.(check bool) (name ^ " miss") true
    (let result, _ = Rtree.query_list tree (Rect.point 0.9 0.9) in
     result = [])

let test_packed_utilization () =
  (* The paper reports > 99% space utilization for all bulk loaders; for
     our packed loaders only the last node per level may be underfull. *)
  let entries = Helpers.random_entries ~n:2000 ~seed:21 in
  List.iter
    (fun (name, load) ->
      let pool = Helpers.small_pool () in
      let tree = load pool entries in
      let s = Helpers.check_structure tree in
      Alcotest.(check bool)
        (Printf.sprintf "%s utilization %.3f > 0.9" name s.Audit.utilization)
        true (s.Audit.utilization > 0.9))
    [ ("hilbert2d", fun pool entries -> Bulk_hilbert.load_h pool entries); ("hilbert4d", fun pool entries -> Bulk_hilbert.load_h4 pool entries); ("str", Bulk_str.load) ]

let test_empty_tree_queries () =
  let pool = Helpers.small_pool () in
  let tree = Rtree.create_empty pool in
  let result, stats = Rtree.query_list tree (Rect.point 0.5 0.5) in
  Alcotest.(check (list int)) "no results" [] (Helpers.ids_of result);
  Alcotest.(check int) "visits the root leaf" 1 stats.Rtree.leaf_visited;
  ignore (Helpers.check_structure tree)

let test_query_stats_leaf_counts () =
  let entries = Helpers.random_entries ~n:500 ~seed:11 in
  let pool = Helpers.small_pool () in
  let tree = Bulk_hilbert.load_h pool entries in
  let s = Helpers.check_structure tree in
  (* A query covering everything must visit every node. *)
  let world = Rect.union_map ~f:Entry.rect entries in
  let stats = Rtree.query_count tree world in
  Alcotest.(check int) "all leaves visited" s.Audit.leaves stats.Rtree.leaf_visited;
  Alcotest.(check int) "all nodes visited" s.Audit.nodes (Rtree.nodes_visited stats);
  Alcotest.(check int) "all entries matched" 500 stats.Rtree.matched

let prop_loader_query_correct =
  QCheck.Test.make ~name:"all loaders answer random queries exactly" ~count:25
    (QCheck.pair (Helpers.arbitrary_entries 300) QCheck.(int_range 0 1_000_000))
    (fun (entries, qseed) ->
      let query = Helpers.random_rect (Prt_util.Rng.create qseed) in
      let expected = Helpers.brute_force entries query in
      List.for_all
        (fun (_, load) ->
          let pool = Helpers.small_pool () in
          let tree = load pool entries in
          let result, _ = Rtree.query_list tree query in
          Helpers.ids_of result = expected)
        loaders)

(* --- the cut-off ---

   Random trees written straight through [Node]: a lone leaf root, or
   a root over up to a node's worth of leaves.  Leaves hold 0 to
   capacity entries whose coordinates come from a coarse grid (so
   [xmin]s repeat), with NaN, infinities and signed zeros mixed in, and
   ids that may repeat.  The root's boxes are drawn the same way, not
   taken from the children, so the child push meets every case the
   leaf scan does.  For each form, the answer on every source — the
   pool; pread live (the file's pool) and pinned ([read_shared]); the
   mapping live and pinned — must be, entry for entry and bit for bit
   and in order, a [Rect] brute force over the same structure: enter a
   child when its box passes the form's child test, report an entry
   when it passes the report test, both in page order.  The visit
   counts must match too, and [Query.exists] must agree on the live
   sources. *)

module Index_file = Prt_rtree.Index_file
module Query = Prt_rtree.Query

let cut_coord rng =
  match Random.State.int rng 14 with
  | 0 -> Float.nan
  | 1 -> infinity
  | 2 -> neg_infinity
  | 3 -> -0.0
  | _ -> float_of_int (Random.State.int rng 9) /. 8.0

(* [Rect.of_corners] accepts NaN (and spreads it over the axis). *)
let cut_rect rng =
  Rect.of_corners (cut_coord rng, cut_coord rng) (cut_coord rng, cut_coord rng)

let cut_entries rng n = Array.init n (fun _ -> Entry.make (cut_rect rng) (Random.State.int rng 50))

type cut_tree = { ct_root : Entry.t array; ct_leaves : Entry.t array array }
(* [ct_leaves] empty: [ct_root] is a lone leaf root; else it holds one
   box per leaf, whose id is the leaf's index. *)

let gen_cut_tree rng ~cap =
  let fill () =
    match Random.State.int rng 4 with 0 -> 0 | 1 -> cap | _ -> Random.State.int rng (cap + 1)
  in
  if Random.State.int rng 4 = 0 then { ct_root = cut_entries rng (fill ()); ct_leaves = [||] }
  else
    let k = 1 + Random.State.int rng cap in
    {
      ct_root = Array.init k (fun i -> Entry.make (cut_rect rng) i);
      ct_leaves = Array.init k (fun _ -> cut_entries rng (fill ()));
    }

let write_cut_tree ct pool =
  let scratch = Rtree.create_empty pool in
  let count = Array.fold_left (fun n l -> n + Array.length l) 0 ct.ct_leaves in
  if ct.ct_leaves = [||] then
    Rtree.of_root ~pool
      ~root:(Rtree.alloc_node scratch (Node.make Node.Leaf ct.ct_root))
      ~height:1 ~count:(Array.length ct.ct_root)
  else
    let ids = Array.map (fun l -> Rtree.alloc_node scratch (Node.make Node.Leaf l)) ct.ct_leaves in
    let root = Array.map (fun e -> Entry.make (Entry.rect e) ids.(Entry.id e)) ct.ct_root in
    let root = Rtree.alloc_node scratch (Node.make Node.Internal root) in
    Rtree.of_root ~pool ~root ~height:2 ~count

let child_passes form box w =
  match form with
  | Rtree.Window | Rtree.Enclosed -> Rect.intersects box w
  | Rtree.Covering -> Rect.contains box w

let reported form r w =
  match form with
  | Rtree.Window -> Rect.intersects r w
  | Rtree.Enclosed -> Rect.contains w r
  | Rtree.Covering -> Rect.contains r w

(* The expected answer (entries in delivery order) and leaf visits. *)
let cut_brute_force ct form w =
  let sorted a =
    let a = Array.copy a in
    Array.stable_sort Node.page_compare a;
    Array.to_list a
  in
  let scan leaf = List.filter (fun e -> reported form (Entry.rect e) w) (sorted leaf) in
  if ct.ct_leaves = [||] then (scan ct.ct_root, 1)
  else
    let entered = List.filter (fun e -> child_passes form (Entry.rect e) w) (sorted ct.ct_root) in
    (List.concat_map (fun e -> scan ct.ct_leaves.(Entry.id e)) entered, List.length entered)

let prop_cutoff_every_source =
  QCheck.Test.make ~count:100 ~name:"engine: page-order cut-off matches Rect on every source"
    (Helpers.arbitrary_scenario ~max_size:1 ())
    (fun sc ->
      let rng = Random.State.make [| sc.Helpers.sc_seed |] in
      let page_size = [| 256; 512; 4096 |].(Random.State.int rng 3) in
      let ct = gen_cut_tree rng ~cap:(Node.capacity ~page_size) in
      let windows =
        Array.init 12 (fun i ->
            match i with
            | 0 -> Rect.of_corners (neg_infinity, neg_infinity) (infinity, infinity)
            | 1 -> Rect.point (cut_coord rng) (cut_coord rng)
            | _ -> cut_rect rng)
      in
      let check ~source tree snapshot =
        Array.iter
          (fun w ->
            List.iter
              (fun form ->
                let expected, leaves = cut_brute_force ct form w in
                let got = ref [] in
                let stats =
                  Rtree.descend_iter tree (Rtree.page_source tree snapshot) (Rtree.policy form)
                    snapshot w ~f:(fun e -> got := e :: !got)
                in
                let got = List.rev !got in
                if
                  not
                    (List.length got = List.length expected
                    && List.for_all2 same_entry got expected
                    && stats.Rtree.leaf_visited = leaves)
                then
                  QCheck.Test.fail_reportf
                    "%s, page size %d, window %a: %d hits (%d leaves), want %d (%d)" source
                    page_size Rect.pp w (List.length got) stats.Rtree.leaf_visited
                    (List.length expected) leaves)
              [ Rtree.Window; Rtree.Enclosed; Rtree.Covering ];
            let any = fst (cut_brute_force ct Rtree.Window w) <> [] in
            if Option.is_none snapshot && Query.exists tree w <> any then
              QCheck.Test.fail_reportf "%s: Query.exists disagrees on %a" source Rect.pp w)
          windows
      in
      let pool = Buffer_pool.create ~capacity:512 (Pager.create_memory ~page_size ()) in
      check ~source:"pool" (write_cut_tree ct pool) None;
      let path = Filename.temp_file "prt_cutoff" ".idx" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Index_file.close
            (Index_file.create ~page_size ~backend:`Pread path ~build:(write_cut_tree ct));
          List.iter
            (fun backend ->
              let idx = Index_file.open_ ~page_size ~backend path in
              Fun.protect
                ~finally:(fun () -> Index_file.close idx)
                (fun () ->
                  let name = Index_file.read_backend idx in
                  check ~source:(name ^ " live") (Index_file.tree idx) None;
                  Index_file.with_snapshot idx (fun view ->
                      check ~source:(name ^ " pinned") (Index_file.tree idx) (Some view));
                  (* The mapped kernels ran, on every page. *)
                  match Index_file.mmap_counters idx with
                  | Some { c_windows_served = served; c_fallbacks = fallbacks; _ }
                    when served = 0 || fallbacks > 0 ->
                      QCheck.Test.fail_reportf "mmap: %d pages served in place, %d fallbacks"
                        served fallbacks
                  | _ -> ()))
            [ `Pread; `Mmap ]);
      true)

let test_tgs_beats_random_order () =
  (* Sanity check that TGS produces a genuinely clustered tree: on
     uniform data its average query must touch far fewer leaves than a
     tree packed in input (random) order. *)
  let entries = Helpers.random_entries ~n:1500 ~seed:8 in
  let random_tree = Pack.build_from_ordered (Helpers.small_pool ()) entries in
  let tgs_tree = Bulk_tgs.load (Helpers.small_pool ()) entries in
  let queries = Helpers.random_queries ~n:30 ~seed:9 in
  let leaves tree =
    Array.fold_left (fun acc q -> acc + (Rtree.query_count tree q).Rtree.leaf_visited) 0 queries
  in
  let r = leaves random_tree and t = leaves tgs_tree in
  Alcotest.(check bool) (Printf.sprintf "tgs %d < random %d / 2" t r) true (t < r / 2)

let test_validate_catches_corruption () =
  let pool = Helpers.small_pool () in
  let entries = Helpers.random_entries ~n:200 ~seed:2 in
  let tree = Bulk_hilbert.load_h pool entries in
  (* Corrupt the MBR of the root's first child. *)
  let root_node = Rtree.read_node tree (Rtree.root tree) in
  let root_entries = Node.entries root_node in
  root_entries.(0) <- Entry.make (Rect.point 0.0 0.0) (Entry.id root_entries.(0));
  Rtree.write_node tree (Rtree.root tree) (Node.make (Node.kind root_node) root_entries);
  Alcotest.(check bool) "validation fails" true
    (try
       ignore (Audit.validate tree);
       false
     with Audit.Invalid _ -> true)

let suite =
  let loader_cases =
    List.concat_map
      (fun loader ->
        let name, _ = loader in
        [
          Alcotest.test_case (name ^ ": query vs oracle across sizes") `Quick
            (test_loader_queries loader);
          Alcotest.test_case (name ^ ": leaves on one level") `Quick
            (test_loader_all_leaves_same_level loader);
          Alcotest.test_case (name ^ ": duplicate rectangles") `Quick
            (test_loader_duplicate_rects loader);
        ])
      loaders
  in
  [
    Alcotest.test_case "entry: codec roundtrip" `Quick test_entry_codec_roundtrip;
    Alcotest.test_case "entry: paper record size" `Quick test_entry_size;
    Alcotest.test_case "entry: kd comparators" `Quick test_entry_compare_dim;
    Alcotest.test_case "node: codec roundtrip" `Quick test_node_codec_roundtrip;
    Alcotest.test_case "node: overflow" `Quick test_node_overflow;
    Alcotest.test_case "node: bad kind" `Quick test_node_bad_kind;
    Helpers.qcheck_case prop_node_codec;
    Helpers.qcheck_case prop_cutoff_every_source;
    Alcotest.test_case "tree: empty queries" `Quick test_empty_tree_queries;
    Alcotest.test_case "tree: stats count every node" `Quick test_query_stats_leaf_counts;
    Alcotest.test_case "tree: packed utilization" `Quick test_packed_utilization;
    Alcotest.test_case "tree: validate catches corruption" `Quick test_validate_catches_corruption;
    Alcotest.test_case "tgs: beats random packing" `Quick test_tgs_beats_random_order;
    Helpers.qcheck_case prop_loader_query_correct;
  ]
  @ loader_cases
