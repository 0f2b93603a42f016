(* Input generation.  The map — TIGER-like road segments from
   [Prt_workloads.Tiger] — is one fixed dataset, like the paper's TIGER
   files, and so is each workload's window population.  The heaviest
   windows fall in the map's densest urban centre, whose density varies
   ~70x between Tiger seeds, and how a few windows line up with that
   centre sets p99.9: drawn afresh per seed, the map moved the p99.9 of
   0.1 % windows over 668k rectangles from 2.7 to 8.9 ms, and the
   windows alone moved ingest-mixed's from 1.1 to 2.6 ms.  [--seed]
   drives the traffic instead: the order in which windows are queried
   and how they group into requests. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Tiger = Prt_workloads.Tiger

(* The seed of the map and of the window populations. *)
let population_seed = 1

let map ~n = Tiger.generate (Tiger.default_params ~n ~seed:population_seed)

(* [count] squares of [area_fraction] of [world], in the order [seed]
   draws: one per cell of a jittered grid, placed uniformly inside its
   cell (clamped to the world), so every region is represented in
   proportion. *)
let squares ~count ~area_fraction ~world ~seed =
  let rng = Rng.create population_seed in
  let w = Rect.width world and h = Rect.height world in
  let side = sqrt (area_fraction *. w *. h) in
  let g = int_of_float (Float.ceil (sqrt (float_of_int count))) in
  let cw = w /. float_of_int g and ch = h /. float_of_int g in
  let out =
    Array.init count (fun k ->
        let x = Rect.xmin world +. (float_of_int (k mod g) *. cw) +. Rng.float rng cw in
        let y = Rect.ymin world +. (float_of_int (k / g) *. ch) +. Rng.float rng ch in
        let x = Float.min x (Rect.xmax world -. side) and y = Float.min y (Rect.ymax world -. side) in
        Rect.make ~xmin:x ~ymin:y ~xmax:(x +. side) ~ymax:(y +. side))
  in
  Rng.shuffle (Rng.create seed) out;
  out

(* [count] entries drawn in proportion to the map's density, in the
   order [seed] draws: the entries in Hilbert order, one drawn
   uniformly from each of [count] equal runs. *)
let stratified_entries ~count ~seed data =
  let world = Prt_workloads.Queries.world_of data in
  let keyed = Array.map (fun e -> (Prt_rtree.Bulk_hilbert.hilbert2d_key ~world e, e)) data in
  Array.sort (fun (a, _) (b, _) -> compare a b) keyed;
  let rng = Rng.create population_seed in
  let n = Array.length data in
  let out =
    Array.init count (fun k ->
        let lo = k * n / count and hi = (k + 1) * n / count in
        snd keyed.(lo + Rng.int rng (max 1 (hi - lo))))
  in
  Rng.shuffle (Rng.create seed) out;
  out
