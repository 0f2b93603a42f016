(* Quickstart: build a PR-tree over a handful of rectangles, run a
   window query, and inspect the index.

   Run with: dune exec examples/quickstart.exe *)

open Prt

let () =
  (* Some rectangles: city blocks, say. *)
  let rects =
    [|
      Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:1.0;
      Rect.make ~xmin:1.5 ~ymin:0.5 ~xmax:3.0 ~ymax:2.0;
      Rect.make ~xmin:4.0 ~ymin:4.0 ~xmax:5.0 ~ymax:5.0;
      Rect.make ~xmin:0.2 ~ymin:3.0 ~xmax:0.8 ~ymax:4.2;
      Rect.point 2.5 2.5;
    |]
  in
  (* One call: an in-memory pool with 4 KB pages and a bulk-loaded
     PR-tree. Ids are array positions. *)
  let tree = prtree rects in
  Printf.printf "indexed %d rectangles; height %d; node capacity %d\n" (Rtree.count tree)
    (Rtree.height tree) (Rtree.capacity tree);

  (* A window query: everything intersecting [1,4.2] x [0,3]. *)
  let window = Rect.make ~xmin:1.0 ~ymin:0.0 ~xmax:4.2 ~ymax:3.0 in
  let hits, stats = Rtree.query_list tree window in
  Printf.printf "query %s -> %d hits (%d nodes touched):\n"
    (Format.asprintf "%a" Rect.pp window)
    stats.Rtree.matched
    (Rtree.nodes_visited stats);
  List.iter
    (fun e ->
      Printf.printf "  rect #%d = %s\n" (Entry.id e) (Format.asprintf "%a" Rect.pp (Entry.rect e)))
    hits;

  (* The index is a normal R-tree: update it in place... *)
  Dynamic.insert tree (Entry.make (Rect.make ~xmin:2.0 ~ymin:2.0 ~xmax:2.6 ~ymax:2.6) 99);
  let hits, _ = Rtree.query_list tree window in
  Printf.printf "after insert: %d hits\n" (List.length hits);

  (* ...and validate its structural invariants at any time. *)
  let s = Audit.validate tree in
  Printf.printf "validated: %d nodes, %d leaves, utilization %.0f%%\n" s.Audit.nodes
    s.Audit.leaves
    (100.0 *. s.Audit.utilization)
