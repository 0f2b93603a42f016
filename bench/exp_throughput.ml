(* Batched query execution, checked end to end: the sequential query
   loop against the file backends (pread, mmap) and the multicore
   batched executor (Qexec) at increasing job counts.

   A PR-tree over uniform points is queried with a fixed batch of square
   windows (1% of the world each).  Every row's summed match count must
   equal the sequential loop's, and the mapped backend's window and
   fallback counters are deterministic; check_regress gates both.

   One timing stays: the metrics-overhead row, the sequential loop with
   the metrics registry off and on, which bounds what always-on
   telemetry costs a query.  Query throughput is measured by
   perfbench/ (see perfbench/README.md), with repetitions and spread. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Prtree = Prt_prtree.Prtree
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries
module Table = Prt_util.Table

let job_counts = [ 1; 2; 4; 8 ]

let throughput ~scale ~seed =
  let n = max 1_000 (int_of_float (200_000.0 *. scale)) in
  let batch = max 64 (int_of_float (2_000.0 *. scale)) in
  Printf.printf "== batched query execution: %d queries over %d rectangles ==\n%!" batch n;
  let entries = Datasets.uniform_points ~n ~seed in
  (* A bare in-memory pager: [Pager.read_shared] (the executor's leaf
     path) has no fault-absorbing retry loop, so the degraded-mode
     PRT_FAULT_RATE wrapper does not apply here. *)
  let pool = Buffer_pool.create ~capacity:8192 (Pager.create_memory ~page_size:Common.page_size ()) in
  let tree = Prtree.load pool entries in
  let world = Queries.world_of entries in
  let queries = Queries.squares ~count:batch ~area_fraction:0.01 ~world ~seed:(seed + 1) in
  (* The sequential query loop: its summed match count is what every
     other row must reproduce. *)
  let seq_loop () =
    Array.fold_left (fun acc w -> acc + (Rtree.query_count tree w).Rtree.matched) 0 queries
  in
  let baseline_matched = seq_loop () in
  let check what matched =
    if matched <> baseline_matched then
      failwith
        (Printf.sprintf "%s matched %d, sequential matched %d" what matched baseline_matched)
  in
  Bench_json.(
    row
      [
        ("mode", str "sequential");
        ("jobs", int 1);
        ("queries", int batch);
        ("entries", int n);
        ("matched", int baseline_matched);
      ]);
  let table = ref [ [ "sequential"; "-"; "1"; Common.commas baseline_matched; "-"; "-" ] ] in
  (* Always-on telemetry overhead: the same sequential loop timed with
     the metrics registry off and on (per-domain striped counters plus
     the latency histogram observed by every query).  Best-of-5 each
     way so scheduler noise doesn't drown the few-percent effect; the
     ratio is wall-clock and therefore reported, not gated. *)
  let cores = Domain.recommended_domain_count () in
  let was_collecting = Prt_obs.Metrics.collecting () in
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  Prt_obs.Metrics.set_collecting false;
  let off_s = best_of 5 seq_loop in
  Prt_obs.Metrics.set_collecting true;
  let on_s = best_of 5 seq_loop in
  Prt_obs.Metrics.set_collecting was_collecting;
  let overhead = (on_s /. off_s -. 1.0) *. 100.0 in
  Printf.printf "metrics overhead: %.4fms off, %.4fms on (%+.1f%%)\n%!" (off_s *. 1e3)
    (on_s *. 1e3) overhead;
  Bench_json.(
    row
      [
        ("mode", str "metrics-overhead");
        ("jobs", int 1);
        ("cores", int cores);
        ("queries", int batch);
        ("entries", int n);
        ("matched", int baseline_matched);
        ("seconds", flt on_s);
        ("seconds_off", flt off_s);
        ("ratio", flt (on_s /. off_s));
      ]);
  (* The file backends: the index committed to disk once, then reopened
     under pread and mmap and the batch replayed through the
     allocation-free [query_into] entry point. *)
  let module Index_file = Prt_rtree.Index_file in
  let path = Filename.temp_file "prt_bench_tp" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let idx =
        Index_file.create ~page_size:Common.page_size path ~build:(fun pool ->
            Prtree.load pool entries)
      in
      Index_file.close idx;
      List.iter
        (fun (backend, bname) ->
          let matched, served, fallbacks = Common.backend_pass path (backend, bname) queries in
          check (bname ^ " backend") matched;
          Bench_json.(
            row
              [
                ("mode", str "file-sequential");
                ("backend", str bname);
                ("jobs", int 1);
                ("queries", int batch);
                ("entries", int n);
                ("matched", int matched);
                ("windows_served", int served);
                ("fallbacks", int fallbacks);
              ]);
          table :=
            [
              "file-sequential";
              bname;
              "1";
              Common.commas matched;
              Common.commas served;
              Common.commas fallbacks;
            ]
            :: !table)
        [ (`Pread, "pread"); (`Mmap, "mmap") ]);
  List.iter
    (fun jobs ->
      let results = Qexec.run ~jobs (Qexec.create tree) queries in
      let total = Rtree.fresh_stats () in
      Array.iter (fun (_, s) -> Rtree.merge_stats total s) results;
      let matched = total.Rtree.matched in
      check (Printf.sprintf "qexec(jobs=%d)" jobs) matched;
      Bench_json.(
        row
          [
            ("mode", str "qexec");
            ("jobs", int jobs);
            ("queries", int batch);
            ("entries", int n);
            ("matched", int matched);
          ]);
      table := [ "qexec"; "-"; string_of_int jobs; Common.commas matched; "-"; "-" ] :: !table)
    job_counts;
  Table.print
    ~header:[ "mode"; "backend"; "jobs"; "matched"; "windows served"; "fallbacks" ]
    (List.rev !table)
