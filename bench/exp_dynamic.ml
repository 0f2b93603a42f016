(* Dynamic-index experiments beyond the paper's tables: the Section 4
   discussion turned into measurements.

   [logm]: the logarithmic-method PR-tree (an [Lsm] store) vs Guttman
   updates vs full rebuild — update cost and the query cost each
   strategy ends up with.

   [degrade]: what the paper warns about — bulk-loaded optimality is
   lost under heuristic updates — quantified per split algorithm. *)

module Table = Prt_util.Table
module Rect = Prt_geom.Rect
module Rtree = Prt_rtree.Rtree
module Entry = Prt_rtree.Entry
module Dynamic = Prt_rtree.Dynamic
module Split = Prt_rtree.Split
module Lsm = Prt_logmethod.Lsm
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries
module Tiger = Prt_workloads.Tiger

open Common

(* A pool whose cache is small enough that update traffic actually
   reaches the pager — otherwise the 4096-page cache absorbs every
   write and "update I/Os" reads as zero. *)
let churn_pool () =
  Prt_storage.Buffer_pool.create ~capacity:64 (Prt_storage.Pager.create_memory ~page_size ())

(* The pager's write counter and the WAL's byte counter, read as deltas
   around the log method's updates (collection is switched on for the
   window and restored after). *)
let m_page_writes = Obs_metrics.counter "pager.writes"
let m_wal_bytes = Obs_metrics.counter "ingest.wal_bytes"

let measure_store_updates f =
  let was = Obs_metrics.collecting () in
  Obs_metrics.set_collecting true;
  Fun.protect
    ~finally:(fun () -> Obs_metrics.set_collecting was)
    (fun () ->
      let w0 = Obs_metrics.value m_page_writes and b0 = Obs_metrics.value m_wal_bytes in
      let t0 = Unix.gettimeofday () in
      f ();
      let secs = Unix.gettimeofday () -. t0 in
      (secs, Obs_metrics.value m_page_writes - w0, Obs_metrics.value m_wal_bytes - b0))

let logm ~scale ~seed =
  section "Logarithmic method: dynamized PR-tree vs alternatives";
  let n = int_of_float (50_000.0 *. scale) in
  (* Skewed data: the regime where bulk-loaded structure matters most
     (Figure 15 right). *)
  let c = 7 in
  let base = Datasets.skewed ~n ~c ~seed in
  let stream =
    Array.map
      (fun e -> Entry.make (Entry.rect e) (Entry.id e + n))
      (Datasets.skewed ~n ~c ~seed:(seed + 1))
  in
  let queries = Queries.skewed_squares ~count:100 ~area_fraction:0.01 ~c ~seed:(seed + 2) in
  note "base %s SKEWED(%d) points, then %s inserts one by one; 100 skewed 1%% queries"
    (commas n) c (commas n);
  let measure_updates pool f =
    let pager = Prt_storage.Buffer_pool.pager pool in
    let before = Prt_storage.Pager.snapshot pager in
    let t0 = Unix.gettimeofday () in
    let result = f () in
    Prt_storage.Buffer_pool.flush pool;
    let secs = Unix.gettimeofday () -. t0 in
    let ios =
      Prt_storage.Pager.total_io
        (Prt_storage.Pager.diff ~before ~after:(Prt_storage.Pager.snapshot pager))
    in
    (result, secs, ios)
  in
  (* Strategy 1: logarithmic method, on an Lsm store with one leaf's
     worth of buffer (M0 = 113).  The base goes in before the measured
     window and is compacted into one component in the smallest slot
     that holds it.  The window's update I/Os are the component pages
     its merges write; merges read components through the mapping, so
     no page reads are counted.  The WAL's bytes are reported apart. *)
  let lm_secs, lm_pages, lm_wal, lm_levels, lm_cost =
    with_temp_dir (fun dir ->
        let t = Lsm.create ~buffer_capacity:capacity ~wal_sync:`Never dir in
        Fun.protect
          ~finally:(fun () -> Lsm.close t)
          (fun () ->
            Array.iter (Lsm.insert t) base;
            Lsm.compact t;
            let secs, pages, wal =
              measure_store_updates (fun () ->
                  Array.iter (Lsm.insert t) stream;
                  Lsm.flush t)
            in
            ( secs,
              pages,
              wal,
              levels_label (Lsm.stats t),
              measure_queries_by (fun q -> Lsm.query t q ~f:ignore) queries )))
  in
  (* Strategy 2: Guttman updates on a bulk-loaded PR-tree. *)
  let pool = churn_pool () in
  let tree = Prt_prtree.Prtree.load pool base in
  let (), gut_secs, gut_ios =
    measure_updates pool (fun () -> Array.iter (Dynamic.insert tree) stream)
  in
  let gut = measure_queries tree queries in
  (* Strategy 3: one full PR-tree rebuild after all inserts arrived (the
     query-cost gold standard; per-update it would cost a full rebuild
     each time). *)
  let pool = churn_pool () in
  let (tree, rebuild_secs, rebuild_ios) =
    measure_updates pool (fun () -> Prt_prtree.Prtree.load pool (Array.append base stream))
  in
  let rebuilt = measure_queries tree queries in
  (* Query leaves and matches gate every row; the ladder gates the log
     method's row through its identity.  Its page writes and WAL bytes
     are recorded untracked ([update_ios], [wal_bytes]), while
     Guttman's and the rebuild's pool I/Os are tracked. *)
  let json strategy ios (cost : query_cost) =
    Bench_json.(
      row
        ([ ("strategy", str strategy); ("n", int n) ]
        @ ios
        @ [ ("total_leaves", int cost.leaves_total); ("matched", int cost.matched_total) ]))
  in
  json "logarithmic method"
    Bench_json.
      [ ("levels", str lm_levels); ("update_ios", int lm_pages); ("wal_bytes", int lm_wal) ]
    lm_cost;
  json "guttman" Bench_json.[ ("ios", int gut_ios) ] gut;
  json "rebuild" Bench_json.[ ("ios", int rebuild_ios) ] rebuilt;
  Table.print
    ~header:
      [ "strategy"; "update time s"; "update I/Os"; "WAL bytes"; "query leaves"; "query cost" ]
    [
      [ "logarithmic method"; f2 lm_secs; commas lm_pages; commas lm_wal; f1 lm_cost.mean_leaves;
        pct lm_cost.relative ];
      [ "Guttman inserts on PR"; f2 gut_secs; commas gut_ios; "-"; f1 gut.mean_leaves;
        pct gut.relative ];
      [ "one final rebuild"; f2 rebuild_secs; commas rebuild_ios; "-"; f1 rebuilt.mean_leaves;
        pct rebuilt.relative ];
    ];
  note "the logarithmic method pays a bounded (log #components) query factor over";
  note "  a fresh bulk load and far fewer update I/Os than Guttman inserts, while";
  note "  keeping the per-component worst-case guarantee that Guttman updates void."

let degrade ~scale ~seed =
  section "Update degradation: bulk-loaded PR-tree under heuristic updates";
  let n = int_of_float (50_000.0 *. scale) in
  let entries = Tiger.generate (Tiger.default_params ~n ~seed) in
  let world = Queries.world_of entries in
  let queries = Queries.squares ~count:100 ~area_fraction:0.01 ~world ~seed:(seed + 3) in
  let churn = n * 3 / 10 in
  note "%s TIGER-like rectangles; churn = delete+reinsert %s of them" (commas n) (commas churn);
  (* Gated rows: no other experiment runs [Split]'s linear and R* paths
     or R*'s forced reinsertion. *)
  let json split (c : query_cost) =
    Bench_json.(
      row
        [
          ("split", str split);
          ("n", int n);
          ("mean_leaves", flt c.mean_leaves);
          ("relative", flt c.relative);
          ("mean_output", flt c.mean_output);
        ])
  in
  let fresh = measure_queries (build_mem PR (fresh_pool ()) entries) queries in
  json "fresh" fresh;
  let rng = Prt_util.Rng.create (seed + 4) in
  let configs =
    [
      ("linear", { Dynamic.default_config with Dynamic.split_algorithm = Split.Linear });
      ("quadratic", Dynamic.default_config);
      ("rstar", { Dynamic.default_config with Dynamic.split_algorithm = Split.Rstar });
      ("rstar+reinsert", Dynamic.rstar_config);
    ]
  in
  let rows =
    List.map
      (fun (alg_name, config) ->
        let pool = fresh_pool () in
        let tree = build_mem PR pool entries in
        for k = 0 to churn - 1 do
          let victim = entries.(Prt_util.Rng.int rng n) in
          if Dynamic.delete ~config tree victim then begin
            (* Reinsert at a nearby location, fresh id. *)
            let r = Entry.rect victim in
            let dx = Prt_util.Rng.float rng 0.01 -. 0.005 in
            let dy = Prt_util.Rng.float rng 0.01 -. 0.005 in
            let moved =
              Rect.of_corners
                (Float.max 0.0 (Rect.xmin r +. dx), Float.max 0.0 (Rect.ymin r +. dy))
                (Float.min 1.0 (Rect.xmax r +. dx), Float.min 1.0 (Rect.ymax r +. dy))
            in
            Dynamic.insert ~config tree (Entry.make moved (n + k))
          end
        done;
        let s = Audit.validate tree in
        let c = measure_queries tree queries in
        json alg_name c;
        [
          alg_name;
          pct c.relative;
          f1 c.mean_leaves;
          Printf.sprintf "%.0f%%" (100.0 *. s.Audit.utilization);
        ])
      configs
  in
  Table.print
    ~header:[ "split algorithm"; "query cost after churn"; "leaves/query"; "utilization" ]
    ([ "(fresh bulk load)"; pct fresh.relative; f1 fresh.mean_leaves; "~100%" ] :: rows);
  note "the paper's caveat quantified: updates erode the bulk-loaded guarantee;";
  note "  the logarithmic method (see `logm`) avoids this."
