(* d-dimensional PR-tree tests: codec roundtrips, pseudo-tree structure,
   exact query answers against a brute-force oracle in 3 and 4
   dimensions, and the (N/B)^(1-1/d) flavour of the worst-case bound. *)

module Hyperrect = Prt_geom.Hyperrect
module Rng = Prt_util.Rng
module Entry_nd = Prt_ndtree.Entry_nd
module Node_nd = Prt_ndtree.Node_nd
module Rtree_nd = Prt_ndtree.Rtree_nd
module Pseudo_nd = Prt_ndtree.Pseudo_nd
module Prtree_nd = Prt_ndtree.Prtree_nd

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

let test_node_codec () =
  let dims = 3 in
  let entries = random_entries ~dims ~n:9 ~seed:1 in
  let node = Node_nd.make Node_nd.Internal entries in
  let decoded = Node_nd.decode ~dims (Node_nd.encode ~page_size:512 ~dims node) in
  Alcotest.(check int) "count" 9 (Node_nd.length decoded);
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "entry" true (Entry_nd.equal e (Node_nd.entries decoded).(i)))
    entries

let b = 9 (* 512-byte pages with 3-D entries: (512-3)/52 = 9 *)

let test_pseudo_nd_structure () =
  let dims = 3 in
  List.iter
    (fun n ->
      let entries = random_entries ~dims ~n ~seed:n in
      let t = Pseudo_nd.build ~b ~dims entries in
      Pseudo_nd.validate ~b ~dims t;
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
      Alcotest.(check int) "entries" n s.Rtree_nd.entries;
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
  Alcotest.(check bool) "multi-level" true (s.Rtree_nd.nodes > s.Rtree_nd.leaves)

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
    let total_leaves = (Rtree_nd.validate tree).Rtree_nd.leaves in
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
