(* Ablation experiments for the design choices DESIGN.md calls out:

   [ablate] covers:
   - priority-leaf size: the paper's key idea is B-sized priority
     leaves; its reference [2] used size 1, and size 0 degenerates to a
     plain 4-D kd-tree. We sweep the size on the worst-case grid and on
     CLUSTER, where the leaves are what saves the PR-tree.
   - memory budget: construction I/O of the external loaders as the
     in-memory budget shrinks (more runs, more distribution rounds).
   - cache: the paper's footnote 5 claims caching internal nodes has
     little effect on query I/O; we measure physical page reads across
     cache sizes.
   - Hilbert curve order: the resolution of the H loader's key. *)

module Table = Prt_util.Table
module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries

open Common

let priority_leaf_sweep ~scale ~seed =
  section "Ablation: priority-leaf size (the paper's key design choice)";
  let b = capacity in
  (* Flagpoles: tall thin rectangles probed by strips near the top.
     Extent is what priority leaves exist for — on point data a plain
     4-D kd-tree is already near-optimal (kdB-trees), so this is the
     input that isolates their contribution. *)
  let n = int_of_float (50_000.0 *. scale) in
  let poles = Datasets.flagpoles ~n ~seed in
  let pole_queries = Datasets.flagpole_queries ~count:50 ~seed:(seed + 1) in
  let uniform = Datasets.size ~n ~max_side:0.01 ~seed:(seed + 2) in
  let uniform_queries =
    Queries.squares ~count:50 ~area_fraction:0.01
      ~world:(Queries.world_of uniform)
      ~seed:(seed + 3)
  in
  let rows =
    List.map
      (fun priority_size ->
        let label =
          match priority_size with
          | 0 -> "0 (plain 4-D kd-tree)"
          | 1 -> "1 (as in reference [2])"
          | s when s = b -> Printf.sprintf "%d = B (the PR-tree)" s
          | s -> string_of_int s
        in
        let pole_tree = Prt_prtree.Prtree.load ~priority_size (fresh_pool ()) poles in
        let pole_leaves = (Audit.validate pole_tree).Audit.leaves in
        let pole_cost = measure_queries pole_tree pole_queries in
        let uni_tree = Prt_prtree.Prtree.load ~priority_size (fresh_pool ()) uniform in
        let uni_cost = measure_queries uni_tree uniform_queries in
        [
          label;
          f1 pole_cost.mean_leaves;
          string_of_int pole_leaves;
          pct uni_cost.relative;
        ])
      [ 0; 1; b / 8; b / 2; b ]
  in
  Table.print
    ~header:[ "priority size"; "flagpole I/Os per query"; "tree leaves"; "uniform query cost" ]
    rows;
  note "full-size priority leaves win by ~5x on extent-adversarial data and cost";
  note "  nothing on nice data; size-1 leaves (ref [2]) bloat the tree badly."

let memory_sweep ~scale ~seed =
  section "Ablation: construction I/O vs memory budget";
  let n = int_of_float (100_000.0 *. scale) in
  let entries = Datasets.uniform_points ~n ~seed in
  let budgets =
    [ 16 * capacity; 64 * capacity; n / 16; n / 4; n ]
    |> List.sort_uniq Int.compare
    |> List.filter (fun m -> m >= 16 * capacity)
  in
  let rows =
    List.map
      (fun mem_records ->
        let build variant =
          let pool = fresh_pool () in
          let pager = Buffer_pool.pager pool in
          let file = Entry.File.of_array pager entries in
          let before = Pager.snapshot pager in
          let tree = build_ext variant pool ~mem_records file in
          Buffer_pool.flush pool;
          ignore (Audit.validate tree);
          Pager.total_io (Pager.diff ~before ~after:(Pager.snapshot pager))
        in
        [
          commas mem_records;
          commas (build H);
          commas (build PR);
          commas (build TGS);
        ])
      budgets
  in
  Table.print ~header:[ "memory (records)"; "H I/Os"; "PR I/Os"; "TGS I/Os" ] rows;
  note "H and PR shrink as memory grows (fewer merge passes / rounds);";
  note "  TGS's per-partition scans dominate regardless."

let cache_sweep ~scale ~seed =
  section "Ablation: query I/O vs buffer-cache size (paper footnote 5)";
  let n = int_of_float (100_000.0 *. scale) in
  let entries = Datasets.uniform_points ~n ~seed in
  let world = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0 in
  let queries = Queries.squares ~count:100 ~area_fraction:0.01 ~world ~seed:(seed + 1) in
  let rows =
    List.map
      (fun cache_pages ->
        let pool = Buffer_pool.create ~capacity:cache_pages (Pager.create_memory ~page_size ()) in
        let tree = Prt_prtree.Prtree.load pool entries in
        let internal =
          let s = Audit.validate tree in
          s.Audit.nodes - s.Audit.leaves
        in
        (* Measure physical reads only: reset after the build+validate
           warm-up, then drop the cache to a fresh state of the chosen
           size by re-creating the pool view. *)
        let pager = Buffer_pool.pager pool in
        let cold = Buffer_pool.create ~capacity:cache_pages pager in
        let tree = Rtree.of_root ~pool:cold ~root:(Rtree.root tree) ~height:(Rtree.height tree)
            ~count:(Rtree.count tree)
        in
        let before = Pager.snapshot pager in
        Array.iter (fun q -> ignore (Rtree.query_count tree q)) queries;
        let d = Pager.diff ~before ~after:(Pager.snapshot pager) in
        [
          string_of_int cache_pages;
          string_of_int internal;
          f1 (float_of_int d.Pager.s_reads /. float_of_int (Array.length queries));
        ])
      [ 1; 8; 64; 512; 4096 ]
  in
  Table.print ~header:[ "cache pages"; "internal nodes"; "physical reads per query" ] rows;
  note "once the cache covers the internal nodes, physical reads converge to the";
  note "  leaf count — and even a tiny cache is close (the paper's footnote 5)."

let hilbert_order_sweep ~scale ~seed =
  section "Ablation: Hilbert curve resolution for the H loader";
  ignore scale;
  let entries =
    Datasets.cluster ~n_clusters:(max 10 (int_of_float (330.0 *. scale))) ~per_cluster:300 ~seed
  in
  let queries = Queries.cluster_strips ~count:50 ~seed:(seed + 1) in
  let world = Prt_workloads.Queries.world_of entries in
  let rows =
    List.map
      (fun order ->
        (* Rebuild the H-tree with a custom-order key. *)
        let side = Float.max (Float.max (Rect.width world) (Rect.height world)) 1e-9 in
        let xlo = Rect.xmin world and ylo = Rect.ymin world in
        let xhi = xlo +. side and yhi = ylo +. side in
        let key e =
          let cx, cy = Rect.center (Entry.rect e) in
          let x = Prt_hilbert.Hilbert2d.quantize ~order ~lo:xlo ~hi:xhi cx in
          let y = Prt_hilbert.Hilbert2d.quantize ~order ~lo:ylo ~hi:yhi cy in
          Prt_hilbert.Hilbert2d.index ~order x y
        in
        let keyed = Array.map (fun e -> (key e, e)) entries in
        Array.sort
          (fun (a, ea) (b, eb) ->
            let c = Int.compare a b in
            if c <> 0 then c else Entry.compare_dim 0 ea eb)
          keyed;
        let tree =
          Prt_rtree.Pack.build_from_ordered (fresh_pool ()) (Array.map snd keyed)
        in
        let cost = measure_queries tree queries in
        [ string_of_int order; f1 cost.mean_leaves ])
      [ 8; 12; 16; 20; 24 ]
  in
  Table.print ~header:[ "curve order (bits/axis)"; "CLUSTER I/Os per query" ] rows;
  note "coarse curves collapse micro-clusters onto single keys, destroying";
  note "  within-cluster locality; the library defaults to order 24."

(* Spatial join between two road layers, per index variant: an
   extension experiment showing join cost also benefits from tight
   bulk-loaded trees. *)
let join ~scale ~seed =
  section "Spatial join: roads x roads (synchronized traversal)";
  let n = int_of_float (40_000.0 *. scale) in
  let left = Prt_workloads.Tiger.generate (Prt_workloads.Tiger.default_params ~n ~seed) in
  let right =
    Array.map
      (fun e -> Entry.make (Entry.rect e) (Entry.id e))
      (Prt_workloads.Tiger.generate (Prt_workloads.Tiger.default_params ~n ~seed:(seed + 1)))
  in
  note "%s x %s TIGER-like rectangles" (commas n) (commas n);
  let rows =
    List.map
      (fun v ->
        let tl = build_mem v (fresh_pool ()) left in
        let tr = build_mem v (fresh_pool ()) right in
        let t0 = Unix.gettimeofday () in
        let stats = Prt_rtree.Join.pairs tl tr ~f:(fun _ _ -> ()) in
        [
          name v;
          commas stats.Prt_rtree.Join.pairs;
          commas (stats.Prt_rtree.Join.nodes_read_left + stats.Prt_rtree.Join.nodes_read_right);
          f2 (Unix.gettimeofday () -. t0);
        ])
      paper_variants
  in
  Table.print ~header:[ "variant"; "result pairs"; "node reads"; "seconds" ] rows;
  note "all variants return identical pair counts; node reads track MBR overlap."

(* Structural quality metrics per variant: the geometry the heuristics
   optimize, without running a single query. *)
let quality ~scale ~seed =
  section "Tree quality metrics (leaf-level MBR geometry)";
  let n = int_of_float (100_000.0 *. scale) in
  List.iter
    (fun (dname, entries) ->
      note "%s (%s rectangles):" dname (commas (Array.length entries));
      let rows =
        List.map
          (fun v ->
            let tree = build_mem v (fresh_pool ()) entries in
            let m = Prt_rtree.Metrics.analyze tree in
            [
              name v;
              Printf.sprintf "%.4f" m.Prt_rtree.Metrics.leaf_area;
              Printf.sprintf "%.6f" m.Prt_rtree.Metrics.leaf_overlap;
              Printf.sprintf "%.4f" m.Prt_rtree.Metrics.dead_space;
            ])
          all_variants
      in
      Table.print ~header:[ "variant"; "leaf area"; "leaf overlap"; "dead space" ] rows)
    [
      ("TIGER-like", Prt_workloads.Tiger.generate (Prt_workloads.Tiger.default_params ~n ~seed));
      ("SKEWED(7)", Datasets.skewed ~n ~c:7 ~seed:(seed + 1));
    ];
  note "lower is better everywhere; leaf overlap predicts window-query cost."

let ablate ~scale ~seed =
  priority_leaf_sweep ~scale ~seed;
  memory_sweep ~scale ~seed;
  cache_sweep ~scale ~seed;
  hilbert_order_sweep ~scale ~seed;
  quality ~scale ~seed
