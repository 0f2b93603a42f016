(* Tests for the extended feature set: k-NN search, spatial join,
   stabbing/enclosure/covering queries, R* forced reinsertion, and the
   priority-leaf ablation knob. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Knn = Prt_rtree.Knn
module Join = Prt_rtree.Join
module Query = Prt_rtree.Query
module Dynamic = Prt_rtree.Dynamic
module Datasets = Prt_workloads.Datasets
module Audit = Prt_rtree.Audit

(* --- k-NN --- *)

let dist_point_rect ~x ~y r = sqrt (Knn.mindist2 ~x ~y r)

let brute_knn entries ~x ~y ~k =
  Array.to_list entries
  |> List.map (fun e -> (dist_point_rect ~x ~y (Entry.rect e), Entry.id e))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < k)

let test_knn_matches_brute_force () =
  let entries = Helpers.random_entries ~n:500 ~seed:1 in
  let tree = Prt_rtree.Bulk_hilbert.load_h (Helpers.small_pool ()) entries in
  let rng = Rng.create 2 in
  for _ = 1 to 25 do
    let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
    let k = 1 + Rng.int rng 20 in
    let result, _ = Knn.nearest tree ~x ~y ~k in
    let expected = brute_knn entries ~x ~y ~k in
    Alcotest.(check int) "k results" k (List.length result);
    (* Distances must match exactly (ids may differ under ties). *)
    List.iteri
      (fun i (e, d) ->
        let ed, _ = List.nth expected i in
        ignore e;
        Alcotest.(check (float 1e-9)) "distance" ed d)
      result
  done

let test_knn_ordering_and_exhaustion () =
  let entries = Helpers.random_entries ~n:120 ~seed:3 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let result, _ = Knn.nearest tree ~x:0.5 ~y:0.5 ~k:1000 in
  Alcotest.(check int) "exhausts the tree" 120 (List.length result);
  let dists = List.map snd result in
  Alcotest.(check bool) "nearest first" true (List.sort compare dists = dists)

let test_knn_zero_inside () =
  let r = Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.6 ~ymax:0.6 in
  let tree =
    Prt_rtree.Bulk_hilbert.load_h (Helpers.small_pool ()) [| Entry.make r 0 |]
  in
  let result, _ = Knn.nearest tree ~x:0.5 ~y:0.5 ~k:1 in
  match result with
  | [ (_, d) ] -> Alcotest.(check (float 0.0)) "inside = distance 0" 0.0 d
  | _ -> Alcotest.fail "expected one result"

let test_knn_within () =
  let entries = Datasets.uniform_points ~n:300 ~seed:4 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let radius = 0.1 in
  let result, _ = Knn.within tree ~x:0.5 ~y:0.5 ~radius in
  let expected =
    Array.to_list entries
    |> List.filter (fun e -> dist_point_rect ~x:0.5 ~y:0.5 (Entry.rect e) <= radius)
    |> List.length
  in
  Alcotest.(check int) "within count" expected (List.length result);
  List.iter (fun (_, d) -> Alcotest.(check bool) "inside radius" true (d <= radius)) result

let test_knn_empty_tree () =
  let tree = Rtree.create_empty (Helpers.small_pool ()) in
  let result, _ = Knn.nearest tree ~x:0.1 ~y:0.1 ~k:5 in
  Alcotest.(check int) "no results" 0 (List.length result)

let test_knn_nodes_read_bounded () =
  (* Small k on a big tree must not read the whole tree. *)
  let entries = Datasets.uniform_points ~n:3000 ~seed:5 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let s = Audit.validate tree in
  let _, stats = Knn.nearest tree ~x:0.5 ~y:0.5 ~k:5 in
  Alcotest.(check bool)
    (Printf.sprintf "read %d of %d nodes" stats.Knn.nodes_read s.Audit.nodes)
    true
    (stats.Knn.nodes_read * 4 < s.Audit.nodes)

(* --- spatial join --- *)

let brute_join left right =
  let acc = ref [] in
  Array.iter
    (fun l ->
      Array.iter
        (fun r ->
          if Rect.intersects (Entry.rect l) (Entry.rect r) then
            acc := (Entry.id l, Entry.id r) :: !acc)
        right)
    left;
  List.sort compare !acc

let test_join_matches_brute_force () =
  let left = Helpers.random_entries ~n:150 ~seed:6 in
  let right = Helpers.random_entries ~n:200 ~seed:7 in
  let tl = Prt_prtree.Prtree.load (Helpers.small_pool ()) left in
  let tr = Prt_rtree.Bulk_hilbert.load_h (Helpers.small_pool ()) right in
  let pairs, stats = Join.pairs_list tl tr in
  let got = List.sort compare (List.map (fun (l, r) -> (Entry.id l, Entry.id r)) pairs) in
  let expected = brute_join left right in
  Alcotest.(check int) "pair count" (List.length expected) stats.Join.pairs;
  Alcotest.(check (list (pair int int))) "pairs" expected got

let test_join_disjoint_worlds () =
  let left = Helpers.random_entries ~n:100 ~seed:8 in
  let shift = Array.map
      (fun e ->
        let r = Entry.rect e in
        Entry.make
          (Rect.make ~xmin:(Rect.xmin r +. 10.0) ~ymin:(Rect.ymin r) ~xmax:(Rect.xmax r +. 10.0)
             ~ymax:(Rect.ymax r))
          (Entry.id e))
      left
  in
  let tl = Prt_prtree.Prtree.load (Helpers.small_pool ()) left in
  let tr = Prt_prtree.Prtree.load (Helpers.small_pool ()) shift in
  let pairs, stats = Join.pairs_list tl tr in
  Alcotest.(check int) "no pairs" 0 (List.length pairs);
  (* Disjoint root boxes: not a single node read. *)
  Alcotest.(check int) "no node reads" 0 (stats.Join.nodes_read_left + stats.Join.nodes_read_right)

let test_join_with_window () =
  let left = Helpers.random_entries ~n:150 ~seed:9 in
  let right = Helpers.random_entries ~n:150 ~seed:10 in
  let window = Rect.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.5 ~ymax:0.5 in
  let tl = Prt_prtree.Prtree.load (Helpers.small_pool ()) left in
  let tr = Prt_prtree.Prtree.load (Helpers.small_pool ()) right in
  let pairs, _ = Join.pairs_list ~window tl tr in
  let expected =
    brute_join left right
    |> List.filter (fun (lid, rid) ->
           let l = left.(lid) and r = right.(rid) in
           (* Window restriction: both rectangles intersect the window
              (their intersection may still fall outside; the join is
              conservative on entries, exact on pairs within). *)
           Rect.intersects (Entry.rect l) window && Rect.intersects (Entry.rect r) window)
  in
  let got = List.sort compare (List.map (fun (l, r) -> (Entry.id l, Entry.id r)) pairs) in
  Alcotest.(check (list (pair int int))) "windowed pairs" expected got

let test_self_join () =
  let entries = Helpers.random_entries ~n:120 ~seed:11 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let count = ref 0 in
  let stats = Join.self_pairs tree ~f:(fun l r ->
      incr count;
      Alcotest.(check bool) "ordered ids" true (Entry.id l < Entry.id r))
  in
  let expected =
    brute_join entries entries |> List.filter (fun (a, b) -> a < b) |> List.length
  in
  Alcotest.(check int) "self pairs reported" expected !count;
  Alcotest.(check int) "self pairs counted" expected stats.Join.pairs

let test_join_heights_differ () =
  let small = Helpers.random_entries ~n:10 ~seed:12 in
  let big = Helpers.random_entries ~n:800 ~seed:13 in
  let ts = Prt_prtree.Prtree.load (Helpers.small_pool ()) small in
  let tb = Prt_prtree.Prtree.load (Helpers.small_pool ()) big in
  Alcotest.(check bool) "heights differ" true (Rtree.height ts <> Rtree.height tb);
  let pairs, _ = Join.pairs_list ts tb in
  let got = List.sort compare (List.map (fun (l, r) -> (Entry.id l, Entry.id r)) pairs) in
  Alcotest.(check (list (pair int int))) "pairs" (brute_join small big) got

(* --- query variants --- *)

let test_stabbing () =
  let entries = Helpers.random_entries ~n:400 ~seed:14 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let rng = Rng.create 15 in
  for _ = 1 to 30 do
    let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
    let result, _ = Query.stabbing_list tree ~x ~y in
    let expected =
      Array.to_list entries
      |> List.filter (fun e -> Rect.contains_point (Entry.rect e) x y)
      |> List.map Entry.id
      |> List.sort Int.compare
    in
    Alcotest.(check (list int)) "stabbing" expected (Helpers.ids_of result)
  done

let test_enclosed () =
  let entries = Helpers.random_entries ~n:400 ~seed:16 in
  let tree = Prt_rtree.Bulk_tgs.load (Helpers.small_pool ()) entries in
  let rng = Rng.create 17 in
  for _ = 1 to 30 do
    let window = Helpers.random_rect rng in
    let result, _ = Query.enclosed_list tree window in
    let expected =
      Array.to_list entries
      |> List.filter (fun e -> Rect.contains window (Entry.rect e))
      |> List.map Entry.id
      |> List.sort Int.compare
    in
    Alcotest.(check (list int)) "enclosed" expected (Helpers.ids_of result)
  done

let test_covering () =
  let entries = Helpers.random_entries ~n:400 ~seed:18 in
  let tree = Prt_rtree.Bulk_str.load (Helpers.small_pool ()) entries in
  let rng = Rng.create 19 in
  for _ = 1 to 30 do
    let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
    let window =
      Rect.make ~xmin:x ~ymin:y ~xmax:(Float.min 1.0 (x +. 0.01)) ~ymax:(Float.min 1.0 (y +. 0.01))
    in
    let result, _ = Query.covering_list tree window in
    let expected =
      Array.to_list entries
      |> List.filter (fun e -> Rect.contains (Entry.rect e) window)
      |> List.map Entry.id
      |> List.sort Int.compare
    in
    Alcotest.(check (list int)) "covering" expected (Helpers.ids_of result)
  done

let test_exists () =
  let entries = Helpers.random_entries ~n:200 ~seed:20 in
  let tree = Prt_prtree.Prtree.load (Helpers.small_pool ()) entries in
  let rng = Rng.create 21 in
  for _ = 1 to 40 do
    let window = Helpers.random_rect rng in
    Alcotest.(check bool) "exists agrees with brute force"
      (Helpers.brute_force entries window <> [])
      (Query.exists tree window)
  done

(* A query issued from inside a query's callback must not disturb the
   descent that called it: each callback on tree [a] runs the same form
   on tree [b], and the outer answer — entries in delivery order and
   visit counts — must equal the plain one.  The callback-count guard
   turns a clobbered stack into a failure rather than a hang. *)
let test_reentrant_forms () =
  let a = Prt_prtree.Prtree.load (Helpers.small_pool ()) (Helpers.random_entries ~n:2000 ~seed:60) in
  let b = Prt_prtree.Prtree.load (Helpers.small_pool ()) (Helpers.random_entries ~n:2000 ~seed:61) in
  let rng = Rng.create 62 in
  let forms =
    [
      ("window", fun tree w ~f -> Rtree.query tree w ~f);
      ("stabbing", fun tree w ~f -> Query.stabbing tree ~x:(Rect.xmin w) ~y:(Rect.ymin w) ~f);
      ("enclosed", fun tree w ~f -> Query.enclosed tree w ~f);
      ("covering", fun tree w ~f -> Query.covering tree w ~f);
    ]
  in
  for _ = 1 to 20 do
    let w = Helpers.random_rect rng in
    List.iter
      (fun (name, run) ->
        let plain = ref [] in
        let plain_stats = run a w ~f:(fun e -> plain := e :: !plain) in
        let limit = List.length !plain in
        let seen = ref [] and calls = ref 0 in
        let stats =
          run a w ~f:(fun e ->
              incr calls;
              if !calls > limit then
                Alcotest.failf "%s: callback ran more often than the answer has entries" name;
              seen := e :: !seen;
              ignore (run b w ~f:ignore))
        in
        Alcotest.(check bool) (name ^ ": outer answer") true (!seen = !plain);
        Alcotest.(check bool) (name ^ ": outer stats") true (stats = plain_stats))
      forms
  done

(* --- R* forced reinsertion --- *)

let test_rstar_reinsert_correct () =
  let pool = Helpers.small_pool () in
  let tree = Rtree.create_empty pool in
  let entries = Helpers.random_entries ~n:400 ~seed:23 in
  Array.iteri
    (fun i e ->
      Dynamic.insert ~config:Dynamic.rstar_config tree e;
      if (i + 1) mod 80 = 0 then ignore (Helpers.check_structure tree))
    entries;
  Alcotest.(check int) "count" 400 (Rtree.count tree);
  ignore (Helpers.check_structure tree);
  Helpers.check_tree_queries ~seed:24 tree entries

let test_rstar_reinsert_improves_or_matches () =
  (* On uniform data, R* with forced reinsertion should beat (or at
     least match) plain quadratic insertion — the R*-tree's original
     selling point. *)
  let entries = Datasets.uniform_points ~n:2000 ~seed:25 in
  let build config =
    let tree = Rtree.create_empty (Helpers.small_pool ()) in
    Array.iter (Dynamic.insert ~config tree) entries;
    ignore (Helpers.check_structure tree);
    tree
  in
  let plain = build Dynamic.default_config in
  let rstar = build Dynamic.rstar_config in
  let queries = Helpers.random_queries ~n:40 ~seed:27 in
  let leaves tree =
    Array.fold_left (fun acc q -> acc + (Rtree.query_count tree q).Rtree.leaf_visited) 0 queries
  in
  let p = leaves plain and r = leaves rstar in
  Alcotest.(check bool) (Printf.sprintf "rstar %d <= 1.1x plain %d" r p) true
    (float_of_int r <= 1.1 *. float_of_int p)

let test_rstar_reinsert_mixed_ops () =
  let pool = Helpers.small_pool () in
  let tree = Rtree.create_empty pool in
  let rng = Rng.create 28 in
  let model : (int, Entry.t) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  for _ = 1 to 500 do
    if Rng.float rng 1.0 < 0.6 || Hashtbl.length model = 0 then begin
      let e = Entry.make (Helpers.random_rect rng) !next_id in
      incr next_id;
      Hashtbl.replace model (Entry.id e) e;
      Dynamic.insert ~config:Dynamic.rstar_config tree e
    end
    else begin
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) model [] in
      let id = List.nth ids (Rng.int rng (List.length ids)) in
      let e = Hashtbl.find model id in
      Hashtbl.remove model id;
      Alcotest.(check bool) "delete" true (Dynamic.delete ~config:Dynamic.rstar_config tree e)
    end;
    Alcotest.(check int) "count" (Hashtbl.length model) (Rtree.count tree)
  done;
  ignore (Helpers.check_structure tree)

(* --- priority-size ablation knob --- *)

let test_priority_size_variants_all_correct () =
  let b = Prt_rtree.Node.capacity ~page_size:Helpers.small_page_size in
  let entries = Helpers.random_entries ~n:400 ~seed:29 in
  List.iter
    (fun priority_size ->
      let tree = Prt_prtree.Prtree.load ~priority_size (Helpers.small_pool ()) entries in
      ignore (Helpers.check_structure tree);
      Helpers.check_tree_queries ~seed:30 tree entries)
    [ 0; 1; b / 2; b ]

let test_priority_size_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Prt_prtree.Pseudo.build ~b:14 ~priority_size:15 (Helpers.random_entries ~n:50 ~seed:1));
       false
     with Invalid_argument _ -> true)

let test_flagpoles_separation () =
  (* The library-level claim behind the ablation: full priority leaves
     beat the plain kd-tree on extent-adversarial data. *)
  let entries = Datasets.flagpoles ~n:3000 ~seed:31 in
  let queries = Datasets.flagpole_queries ~count:20 ~seed:32 in
  let cost priority_size =
    let tree = Prt_prtree.Prtree.load ~priority_size (Helpers.small_pool ()) entries in
    Array.fold_left (fun acc q -> acc + (Rtree.query_count tree q).Rtree.leaf_visited) 0 queries
  in
  let b = Prt_rtree.Node.capacity ~page_size:Helpers.small_page_size in
  let full = cost b and none = cost 0 in
  Alcotest.(check bool) (Printf.sprintf "full %d < plain-kd %d" full none) true (full < none)

let suite =
  [
    Alcotest.test_case "knn: matches brute force" `Quick test_knn_matches_brute_force;
    Alcotest.test_case "knn: ordering and exhaustion" `Quick test_knn_ordering_and_exhaustion;
    Alcotest.test_case "knn: zero distance inside" `Quick test_knn_zero_inside;
    Alcotest.test_case "knn: within radius" `Quick test_knn_within;
    Alcotest.test_case "knn: empty tree" `Quick test_knn_empty_tree;
    Alcotest.test_case "knn: reads few nodes" `Quick test_knn_nodes_read_bounded;
    Alcotest.test_case "join: matches brute force" `Quick test_join_matches_brute_force;
    Alcotest.test_case "join: disjoint worlds read nothing" `Quick test_join_disjoint_worlds;
    Alcotest.test_case "join: windowed" `Quick test_join_with_window;
    Alcotest.test_case "join: self join" `Quick test_self_join;
    Alcotest.test_case "join: different heights" `Quick test_join_heights_differ;
    Alcotest.test_case "query: stabbing" `Quick test_stabbing;
    Alcotest.test_case "query: enclosed" `Quick test_enclosed;
    Alcotest.test_case "query: covering" `Quick test_covering;
    Alcotest.test_case "query: exists" `Quick test_exists;
    Alcotest.test_case "query: from a query callback" `Quick test_reentrant_forms;
    Alcotest.test_case "rstar reinsert: correct" `Quick test_rstar_reinsert_correct;
    Alcotest.test_case "rstar reinsert: quality" `Quick test_rstar_reinsert_improves_or_matches;
    Alcotest.test_case "rstar reinsert: mixed ops" `Quick test_rstar_reinsert_mixed_ops;
    Alcotest.test_case "priority size: all variants correct" `Quick
      test_priority_size_variants_all_correct;
    Alcotest.test_case "priority size: out of range" `Quick test_priority_size_rejected;
    Alcotest.test_case "flagpoles: priority leaves matter" `Quick test_flagpoles_separation;
  ]
