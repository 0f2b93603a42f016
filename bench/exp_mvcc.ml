(* MVCC snapshot reads under commits: do writers leave every pinned
   reader a consistent generation?

   An on-disk index file is queried by snapshot-pinning reader domains
   while the main domain commits a continuous insert+delete churn of
   one rectangle.  Before the churn starts, each window's committed
   answer [base] is counted.  Every generation a reader can pin holds
   the churn rectangle or does not, so a pinned read must match
   [base w], or [base w + 1] when the churn rectangle intersects [w],
   and be labelled Complete; anything else fails the experiment.  Once
   the readers drain, the churn must leave no retained versions or
   parked pages behind.

   Reader throughput during commits is not timed here: wall-clock
   numbers come from perfbench/ (see perfbench/README.md). *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Dynamic = Prt_rtree.Dynamic
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries
module Table = Prt_util.Table

let reader_counts = [ 1; 2; 4 ]

(* One churn entry, inserted and deleted over and over by the writer. *)
let churn_entry =
  Entry.make (Rect.make ~xmin:0.41 ~ymin:0.41 ~xmax:0.42 ~ymax:0.42) 1_000_000

let mvcc ~scale ~seed =
  let n = max 2_000 (int_of_float (100_000.0 *. scale)) in
  let duration = Float.max 0.15 (1.5 *. scale) in
  Printf.printf "== mvcc: checked snapshot reads during commits, %d rectangles ==\n%!" n;
  let entries = Datasets.uniform_points ~n ~seed in
  let world = Queries.world_of entries in
  let windows = Queries.squares ~count:64 ~area_fraction:0.01 ~world ~seed:(seed + 1) in
  let path = Filename.temp_file "prt_bench_mvcc" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let idx =
    Index_file.create ~page_size:Common.page_size path ~build:(fun pool ->
        Prtree.load pool entries)
  in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  let base =
    Array.map (fun w -> (Rtree.query_count (Index_file.tree idx) w).Rtree.matched) windows
  in
  let hits_churn = Array.map (Rect.intersects (Entry.rect churn_entry)) windows in
  (* A reader loop: snapshot-pinned queries over the window set until
     told to stop, each checked; returns the number of reads and how
     many of them saw the churn entry. *)
  let reader stop () =
    let reads = ref 0 and saw_churn = ref 0 in
    while not (Atomic.get stop) do
      let i = !reads mod Array.length windows in
      let stats =
        Index_file.with_snapshot idx (fun sv ->
            Rtree.query_count ~snapshot:sv (Index_file.tree idx) windows.(i))
      in
      let m = stats.Rtree.matched and b = base.(i) in
      let saw = hits_churn.(i) && m = b + 1 in
      if not (Rtree.complete stats && (m = b || saw)) then
        failwith
          (Printf.sprintf
             "mvcc bench: pinned read of window %d matched %d (%s); expected %s, complete" i m
             (Format.asprintf "%a" Rtree.pp_completeness (Rtree.completeness stats))
             (if hits_churn.(i) then Printf.sprintf "%d or %d" b (b + 1) else string_of_int b));
      if saw then incr saw_churn;
      incr reads
    done;
    (!reads, !saw_churn)
  in
  (* [readers] domains query for [duration] seconds while the main
     domain commits the churn; returns (reads, reads that saw the churn
     entry, commits). *)
  let churn ~readers =
    let stop = Atomic.make false in
    let domains = List.init readers (fun _ -> Domain.spawn (reader stop)) in
    let commits = ref 0 in
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < duration do
      Index_file.update idx (fun tree -> Dynamic.insert tree churn_entry);
      Index_file.update idx (fun tree -> ignore (Dynamic.delete tree churn_entry));
      commits := !commits + 2
    done;
    Atomic.set stop true;
    let reads, saw_churn =
      List.fold_left
        (fun (r, s) d ->
          let r', s' = Domain.join d in
          (r + r', s + s'))
        (0, 0) domains
    in
    (reads, saw_churn, !commits)
  in
  let rows =
    List.map
      (fun readers ->
        let reads, saw_churn, commits = churn ~readers in
        Bench_json.(
          row
            [
              ("readers", int readers);
              ("entries", int n);
              ("commits", int commits);
              ("reads", int reads);
              ("churn_reads", int saw_churn);
            ]);
        [
          string_of_int readers;
          string_of_int commits;
          Common.commas reads;
          Common.commas saw_churn;
        ])
      reader_counts
  in
  (* The churn leaves no deferred state behind once readers drain. *)
  Index_file.update idx (fun tree -> Dynamic.insert tree churn_entry);
  let st = Pager.mvcc_stats (Index_file.pager idx) in
  if st.Pager.live_versions <> 0 || st.Pager.parked_pages <> 0 then
    failwith
      (Printf.sprintf "mvcc bench leaked deferred state: %d versions, %d parked pages"
         st.Pager.live_versions st.Pager.parked_pages);
  Table.print
    ~header:[ "readers"; "commits"; "checked reads"; "saw churn entry" ]
    rows
