(* Workload generator tests: determinism, geometric constraints of each
   dataset family, and the query generators. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Datasets = Prt_workloads.Datasets
module Tiger = Prt_workloads.Tiger
module Queries = Prt_workloads.Queries

let unit_square = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0

let check_inside name entries =
  Array.iter
    (fun e ->
      Alcotest.(check bool) (name ^ " inside unit square") true
        (Rect.contains unit_square (Entry.rect e)))
    entries

let check_ids entries =
  Array.iteri (fun i e -> Alcotest.(check int) "id = position" i (Entry.id e)) entries

let test_determinism () =
  let a = Datasets.size ~n:200 ~max_side:0.01 ~seed:5 in
  let b = Datasets.size ~n:200 ~max_side:0.01 ~seed:5 in
  Array.iteri (fun i e -> Alcotest.(check bool) "same" true (Entry.equal e b.(i))) a;
  let c = Datasets.size ~n:200 ~max_side:0.01 ~seed:6 in
  Alcotest.(check bool) "different seed differs" true
    (Array.exists2 (fun x y -> not (Entry.equal x y)) a c)

let test_size_dataset () =
  List.iter
    (fun max_side ->
      let entries = Datasets.size ~n:300 ~max_side ~seed:1 in
      Alcotest.(check int) "n" 300 (Array.length entries);
      check_inside "size" entries;
      check_ids entries;
      Array.iter
        (fun e ->
          let r = Entry.rect e in
          Alcotest.(check bool) "side bounds" true
            (Rect.width r <= max_side && Rect.height r <= max_side))
        entries)
    [ 0.001; 0.05; 0.2 ]

let test_aspect_dataset () =
  List.iter
    (fun a ->
      let entries = Datasets.aspect ~n:300 ~a ~seed:2 in
      check_inside "aspect" entries;
      Array.iter
        (fun e ->
          let r = Entry.rect e in
          let area = Rect.area r in
          Alcotest.(check (float 1e-9)) "fixed area" 1e-6 area;
          let ratio = Float.max (Rect.width r /. Rect.height r) (Rect.height r /. Rect.width r) in
          Alcotest.(check (float 1e-6)) "aspect ratio" a ratio)
        entries)
    [ 1.0; 10.0; 1000.0; Datasets.max_aspect ];
  (* Past 1e5 the long side nears the whole square and no centre would
     fit: refused, not drawn for ever. *)
  Alcotest.(check bool) "1e6 refused" true
    (try
       ignore (Datasets.aspect ~n:1 ~a:1e6 ~seed:2);
       false
     with Invalid_argument _ -> true)

let test_skewed_dataset () =
  let entries = Datasets.skewed ~n:500 ~c:5 ~seed:3 in
  check_inside "skewed" entries;
  (* Squeezing: most mass near y = 0. *)
  let below = Array.fold_left
      (fun acc e -> if Rect.ymin (Entry.rect e) < 0.1 then acc + 1 else acc) 0 entries
  in
  Alcotest.(check bool) (Printf.sprintf "squeezed down (%d/500 below 0.1)" below) true (below > 250);
  (* All are points. *)
  Array.iter (fun e -> Alcotest.(check (float 0.0)) "point" 0.0 (Rect.area (Entry.rect e))) entries

let test_cluster_dataset () =
  let entries = Datasets.cluster ~n_clusters:10 ~per_cluster:50 ~seed:4 in
  Alcotest.(check int) "n" 500 (Array.length entries);
  check_inside "cluster" entries;
  (* Every point lies within its cluster's tiny square on the mid line. *)
  Array.iteri
    (fun idx e ->
      let c = idx / 50 in
      let cx = (float_of_int c +. 0.5) /. 10.0 in
      let x = Rect.xmin (Entry.rect e) and y = Rect.ymin (Entry.rect e) in
      Alcotest.(check bool) "x near center" true (Float.abs (x -. cx) <= Datasets.cluster_side);
      Alcotest.(check bool) "y near band" true
        (Float.abs (y -. Datasets.cluster_band_center) <= Datasets.cluster_side))
    entries

let test_bit_reverse () =
  Alcotest.(check int) "rev 0" 0 (Datasets.bit_reverse ~bits:4 0);
  Alcotest.(check int) "rev 1" 8 (Datasets.bit_reverse ~bits:4 1);
  Alcotest.(check int) "rev 0b0110" 6 (Datasets.bit_reverse ~bits:4 6);
  Alcotest.(check int) "rev 0b0011" 12 (Datasets.bit_reverse ~bits:4 3);
  (* Involution. *)
  for i = 0 to 15 do
    Alcotest.(check int) "involution" i (Datasets.bit_reverse ~bits:4 (Datasets.bit_reverse ~bits:4 i))
  done

let test_worst_case_grid () =
  let wc = Datasets.worst_case ~columns_log2:4 ~b:8 in
  Alcotest.(check int) "n" (16 * 8) (Array.length wc.Datasets.entries);
  (* Column x-coordinates are i + 1/2. *)
  Array.iteri
    (fun idx e ->
      let i = idx / 8 in
      Alcotest.(check (float 0.0)) "x" (float_of_int i +. 0.5) (Rect.xmin (Entry.rect e)))
    wc.Datasets.entries;
  (* All y values distinct (the shifts are all different). *)
  let ys = Array.map (fun e -> Rect.ymin (Entry.rect e)) wc.Datasets.entries in
  let sorted = Array.copy ys in
  Array.sort Float.compare sorted;
  for i = 0 to Array.length sorted - 2 do
    Alcotest.(check bool) "distinct y" true (sorted.(i) < sorted.(i + 1))
  done

let test_worst_case_query_misses_everything () =
  let wc = Datasets.worst_case ~columns_log2:5 ~b:10 in
  for row = 0 to 9 do
    let q = Datasets.worst_case_query wc ~row in
    Alcotest.(check (list int)) "zero output" []
      (Helpers.brute_force wc.Datasets.entries q)
  done

let test_tiger_properties () =
  let entries = Tiger.generate (Tiger.default_params ~n:2000 ~seed:7) in
  Alcotest.(check int) "n" 2000 (Array.length entries);
  check_inside "tiger" entries;
  check_ids entries;
  (* Road segments are short: diagonal far below the world size. *)
  let long_ones =
    Array.fold_left
      (fun acc e ->
        let r = Entry.rect e in
        if Rect.width r > 0.01 || Rect.height r > 0.01 then acc + 1 else acc)
      0 entries
  in
  Alcotest.(check bool) (Printf.sprintf "segments short (%d long)" long_ones) true
    (long_ones < 20);
  (* Deterministic. *)
  let again = Tiger.generate (Tiger.default_params ~n:2000 ~seed:7) in
  Array.iteri (fun i e -> Alcotest.(check bool) "same" true (Entry.equal e again.(i))) entries

let test_tiger_subsets_nested_sizes () =
  let subsets = Tiger.eastern_subsets ~scale:0.02 ~seed:9 in
  Alcotest.(check int) "five subsets" 5 (Array.length subsets);
  for i = 0 to 3 do
    Alcotest.(check bool) "increasing size" true
      (Array.length subsets.(i) < Array.length subsets.(i + 1))
  done

let test_queries_squares () =
  let world = Rect.make ~xmin:2.0 ~ymin:1.0 ~xmax:6.0 ~ymax:3.0 in
  let qs = Queries.squares ~count:50 ~area_fraction:0.01 ~world ~seed:8 in
  Alcotest.(check int) "count" 50 (Array.length qs);
  Array.iter
    (fun q ->
      Alcotest.(check bool) "inside world" true (Rect.contains world q);
      Alcotest.(check (float 1e-9)) "area = 1% of world" (0.01 *. Rect.area world) (Rect.area q))
    qs

let test_queries_skewed () =
  let qs = Queries.skewed_squares ~count:50 ~area_fraction:0.01 ~c:5 ~seed:9 in
  Array.iter
    (fun q ->
      Alcotest.(check bool) "inside unit square" true (Rect.contains unit_square q);
      (* Same x-width as the unskewed square. *)
      Alcotest.(check (float 1e-9)) "x width" 0.1 (Rect.width q))
    qs

let test_queries_cluster_strips () =
  let data = Datasets.cluster ~n_clusters:20 ~per_cluster:20 ~seed:10 in
  let qs = Queries.cluster_strips ~count:20 ~seed:11 in
  Array.iter
    (fun q ->
      Alcotest.(check (float 1e-12)) "strip height" 1e-7 (Rect.height q);
      (* Strip passes through the band of every cluster: x-range spans
         all clusters. *)
      Alcotest.(check bool) "full width" true (Rect.xmin q = 0.0 && Rect.xmax q = 1.0))
    qs;
  (* At least some strips catch some points. *)
  let total =
    Array.fold_left (fun acc q -> acc + List.length (Helpers.brute_force data q)) 0 qs
  in
  Alcotest.(check bool) (Printf.sprintf "strips hit points (%d)" total) true (total > 0)

let test_uniform_points () =
  let entries = Datasets.uniform_points ~n:100 ~seed:12 in
  check_inside "uniform" entries;
  Array.iter (fun e -> Alcotest.(check (float 0.0)) "point" 0.0 (Rect.area (Entry.rect e))) entries

let suite =
  [
    Alcotest.test_case "datasets: determinism" `Quick test_determinism;
    Alcotest.test_case "datasets: size" `Quick test_size_dataset;
    Alcotest.test_case "datasets: aspect" `Quick test_aspect_dataset;
    Alcotest.test_case "datasets: skewed" `Quick test_skewed_dataset;
    Alcotest.test_case "datasets: cluster" `Quick test_cluster_dataset;
    Alcotest.test_case "datasets: bit reverse" `Quick test_bit_reverse;
    Alcotest.test_case "datasets: worst-case grid" `Quick test_worst_case_grid;
    Alcotest.test_case "datasets: worst-case query misses" `Quick
      test_worst_case_query_misses_everything;
    Alcotest.test_case "datasets: uniform points" `Quick test_uniform_points;
    Alcotest.test_case "tiger: properties" `Quick test_tiger_properties;
    Alcotest.test_case "tiger: nested subsets" `Quick test_tiger_subsets_nested_sizes;
    Alcotest.test_case "queries: squares" `Quick test_queries_squares;
    Alcotest.test_case "queries: skewed" `Quick test_queries_skewed;
    Alcotest.test_case "queries: cluster strips" `Quick test_queries_cluster_strips;
  ]
