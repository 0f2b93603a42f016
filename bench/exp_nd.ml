(* Theorem 2: the d-dimensional PR-tree's O((N/B)^(1-1/d) + T/B) bound,
   checked empirically in 3 dimensions — zero-ish-output slab queries
   must scale like (N/B)^(2/3), clearly sublinear in the leaf count. *)

module Table = Prt_util.Table
module Hyperrect = Prt_geom.Hyperrect
module Rng = Prt_util.Rng
module Entry_nd = Prt_ndtree.Entry_nd
module Rtree_nd = Prt_ndtree.Rtree_nd
module Prtree_nd = Prt_ndtree.Prtree_nd

open Common

let boxes ~dims ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      let lo = Array.init dims (fun _ -> Rng.float rng 1.0) in
      let hi = Array.map (fun v -> Float.min 1.0 (v +. Rng.float rng 0.01)) lo in
      Entry_nd.make (Hyperrect.make ~lo ~hi) i)

let nd ~scale ~seed =
  section "Theorem 2: 3-D PR-tree query bound ((N/B)^(2/3) scaling)";
  let dims = 3 in
  let sizes =
    List.map (fun n -> int_of_float (float_of_int n *. scale)) [ 25_000; 50_000; 100_000; 200_000 ]
  in
  let rows =
    List.map
      (fun n ->
        let entries = boxes ~dims ~n ~seed in
        let pool = fresh_pool () in
        let tree = Prtree_nd.load ~dims pool entries in
        let cap = Rtree_nd.capacity tree in
        let total_leaves = (Rtree_nd.validate tree).Audit.leaves in
        (* Zero-volume axis-parallel slabs in each orientation. *)
        let rng = Rng.create (seed + 1) in
        let q = 30 in
        let total = ref 0 and matched = ref 0 in
        for i = 1 to q do
          let axis = i mod dims in
          let v = Rng.float rng 1.0 in
          let lo = Array.make dims 0.0 and hi = Array.make dims 1.0 in
          lo.(axis) <- v;
          hi.(axis) <- v;
          let s = Rtree_nd.query_count tree (Hyperrect.make ~lo ~hi) in
          total := !total + s.Rtree_nd.leaf_visited;
          matched := !matched + s.Rtree_nd.matched
        done;
        let mean = float_of_int !total /. float_of_int q in
        let bound = Float.pow (float_of_int n /. float_of_int cap) (2.0 /. 3.0) in
        Bench_json.(
          row
            [
              ("n", int n);
              ("mean_leaves", flt mean);
              ("total_leaves", int total_leaves);
              ("matched", int !matched);
              ("ratio", flt (mean /. bound));
            ]);
        [
          commas n;
          f1 mean;
          f1 (float_of_int !matched /. float_of_int q /. float_of_int cap);
          string_of_int total_leaves;
          f1 bound;
          f2 (mean /. bound);
        ])
      sizes
  in
  Table.print
    ~header:[ "N"; "mean leaves/query"; "T/B"; "total leaves"; "(N/B)^(2/3)"; "ratio" ]
    rows;
  note "the ratio staying bounded as N grows 8x is the Theorem 2 guarantee in 3-D."
