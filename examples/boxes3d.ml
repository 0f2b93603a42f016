(* Collision checking in three dimensions: index the bounding boxes of
   parts in an industrial installation (the motivating workload of the
   paper's reference [14]) with the d-dimensional PR-tree of Theorem 2,
   and query for everything a moving tool sweeps through.

   Run with: dune exec examples/boxes3d.exe *)

open Prt

let () =
  let dims = 3 in
  let rng = Rng.create 31 in
  (* 40K parts: mostly small boxes, a few long pipes along each axis. *)
  let n = 40_000 in
  let part i =
    let center = Array.init dims (fun _ -> Rng.float rng 1.0) in
    let half = Array.init dims (fun _ -> 0.002 +. Rng.float rng 0.01) in
    if i mod 50 = 0 then begin
      (* A pipe: stretched 50x along one axis. *)
      let axis = Rng.int rng dims in
      half.(axis) <- Float.min 0.45 (half.(axis) *. 50.0)
    end;
    let lo = Array.init dims (fun d -> Float.max 0.0 (center.(d) -. half.(d))) in
    let hi = Array.init dims (fun d -> Float.min 1.0 (center.(d) +. half.(d))) in
    Ndtree.Entry.make (Hyperrect.make ~lo ~hi) i
  in
  let parts = Array.init n part in
  let pool = memory_pool () in
  let tree = Ndtree.Prtree.load ~dims pool parts in
  let s = Ndtree.Rtree.validate tree in
  Printf.printf "indexed %d parts: height %d, %d nodes, fanout %d, utilization %.0f%%\n" n
    (Ndtree.Rtree.height tree) s.Audit.nodes (Ndtree.Rtree.capacity tree)
    (100.0 *. s.Audit.utilization);

  (* The tool sweep: a thin beam moving across the cell. *)
  let sweep =
    Hyperrect.make ~lo:[| 0.0; 0.48; 0.48 |] ~hi:[| 1.0; 0.52; 0.52 |]
  in
  let hits, stats = Ndtree.Rtree.query_list tree sweep in
  Printf.printf "tool sweep intersects %d parts (visited %d of %d leaves)\n" (List.length hits)
    stats.Prt_ndtree.Rtree_nd.leaf_visited s.Audit.leaves;

  (* Verify against brute force, because collisions are safety-critical. *)
  let expected =
    Array.to_list parts
    |> List.filter (fun e -> Hyperrect.intersects (Ndtree.Entry.box e) sweep)
    |> List.length
  in
  assert (expected = List.length hits);
  Printf.printf "cross-checked against brute force: %d collisions confirmed\n" expected;

  (* Point containment probes ("can the arm pass through here?"). *)
  let clear = ref 0 in
  let probes = 1_000 in
  for _ = 1 to probes do
    let p = Hyperrect.point (Array.init dims (fun _ -> Rng.float rng 1.0)) in
    let stats = Ndtree.Rtree.query_count tree p in
    if stats.Prt_ndtree.Rtree_nd.matched = 0 then incr clear
  done;
  Printf.printf "%d of %d random probe points are collision-free\n" !clear probes
