(* The serving tier end to end: a real Unix-domain socket server driven
   by the multi-domain load generator, with every answer checked and
   three deterministic outcome columns the regression gate pins
   exactly.

   Three modes share one row shape:

   - qps: per workload (SKEWED, CLUSTER), the server (no quotas, no
     admission cap) is driven by 1/2/4 load-generator domains; matched
     counts are cross-checked against a local oracle computed before
     the server starts, and matched / ok / shed are gated exactly.
   - quota: one serial client against a server whose per-connection
     bucket holds exactly 4 batches and never refills — request 5 on
     is rejected [E_quota]; the server-side [quota_rejected] count is
     exact.
   - overload: batch size above the executor's [max_in_flight], so
     every request (and its one retry) is shed [E_overloaded]; the
     server-side [shed] count is exact.

   Serving latency and throughput are perfbench's serve-point workload
   (see perfbench/README.md): a dozen requests with the server on its
   own domain measure cross-domain wake-ups more than the server. *)

module Rect = Prt_geom.Rect
module Superblock = Prt_storage.Superblock
module Rtree = Prt_rtree.Rtree
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries
module Server = Prt_serve.Server
module Client = Prt_serve.Client
module Load_gen = Prt_serve.Load_gen
module Table = Prt_util.Table

let concurrencies = [ 1; 2; 4 ]
let batch = 8

(* Fresh socket path per server instance (short: Unix socket paths cap
   at ~100 bytes). *)
let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prt_serve_%d_%d.sock" (Unix.getpid ()) !k)

(* Run [drive] against a server with [config] over [idx]; returns
   (drive result, server report).  The server runs on its own domain;
   drain is requested once the driver finishes, and the drained server
   must leave no snapshot pins behind. *)
let with_server ~config idx drive =
  let srv = Server.create ~config idx in
  let path = socket_path () in
  Server.listen_unix srv path;
  let dom = Domain.spawn (fun () -> Server.run srv) in
  let finally () =
    Server.request_drain srv;
    let report = Domain.join dom in
    (try Sys.remove path with Sys_error _ -> ());
    let pins = Superblock.pin_count (Index_file.superblock idx) in
    if pins <> 0 then failwith (Printf.sprintf "serve bench leaked %d snapshot pin(s)" pins);
    report
  in
  match drive path with
  | v -> (v, finally ())
  | exception e ->
      ignore (finally ());
      raise e

let emit_row ~mode ~workload ~concurrency ~entries ~queries ~(stats : Load_gen.stats)
    ~(report : Server.report) =
  Bench_json.(
    row
      [
        ("mode", str mode);
        ("workload", str workload);
        ("concurrency", int concurrency);
        ("batch", int batch);
        ("entries", int entries);
        ("queries", int queries);
        ("sent", int stats.Load_gen.sent);
        ("ok", int stats.Load_gen.ok);
        ("matched", int stats.Load_gen.matched);
        ("shed", int report.Server.shed_overload);
        ("quota_rejected", int report.Server.shed_quota);
        ("retries", int stats.Load_gen.retries);
        ("gave_up", int stats.Load_gen.gave_up);
      ])

let serve ~scale ~seed =
  let n = max 2_000 (int_of_float (50_000.0 *. scale)) in
  let count = 96 in
  Printf.printf "== serve: network tier answers, quotas and shedding, %d rectangles ==\n%!" n;
  let workloads =
    [
      ( "SKEWED",
        Datasets.skewed ~n ~c:5 ~seed,
        Queries.skewed_squares ~count ~area_fraction:0.001 ~c:5 ~seed:(seed + 1) );
      ( "CLUSTER",
        (let clusters = max 1 (int_of_float (sqrt (float_of_int n))) in
         Datasets.cluster ~n_clusters:clusters ~per_cluster:(max 1 (n / clusters)) ~seed),
        Queries.cluster_strips ~count ~seed:(seed + 1) );
    ]
  in
  let table = ref [] in
  List.iter
    (fun (workload, entries, windows) ->
      let path = Filename.temp_file "prt_bench_serve" ".idx" in
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      let idx =
        Index_file.create ~page_size:Common.page_size path ~build:(fun pool ->
            Prtree.load pool entries)
      in
      Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
      (* The oracle, computed before the server exists: what every
         window must match, however the client batches are split. *)
      let tree = Index_file.tree idx in
      let oracle =
        Array.fold_left (fun acc w -> acc + (Rtree.query_count tree w).Rtree.matched) 0 windows
      in
      let open_config =
        { Server.default_config with Server.max_conns = 16; max_queue = 4096; jobs = 1 }
      in
      (* qps rows: one server instance serves all three concurrency
         levels in sequence. *)
      let results, report =
        with_server ~config:open_config idx (fun sock ->
            List.map
              (fun concurrency ->
                let cfg =
                  {
                    (Load_gen.default_config ~connect:(fun () -> Client.connect_unix sock)) with
                    Load_gen.concurrency;
                    batch;
                    seed;
                  }
                in
                (concurrency, Load_gen.run cfg windows))
              concurrencies)
      in
      List.iter
        (fun (concurrency, stats) ->
          if stats.Load_gen.matched <> oracle then
            failwith
              (Printf.sprintf "serve bench: %s c=%d matched %d, oracle says %d" workload
                 concurrency stats.Load_gen.matched oracle);
          (* Server-side shed counters belong to the whole instance;
             per-row they are zero by construction (no quotas, huge
             queue) — assert rather than apportion. *)
          emit_row ~mode:"qps" ~workload ~concurrency ~entries:n ~queries:count ~stats
            ~report:
              { report with Server.shed_overload = 0; shed_quota = 0 };
          table :=
            [
              workload;
              "qps";
              string_of_int concurrency;
              string_of_int stats.Load_gen.ok;
              Common.commas stats.Load_gen.matched;
              "-";
            ]
            :: !table)
        results;
      if report.Server.shed_overload + report.Server.shed_quota <> 0 then
        failwith "serve bench: unexpected shedding in the open configuration")
    workloads;
  (* Deterministic shedding columns, on the SKEWED index only. *)
  let workload, dataset, windows = List.hd workloads in
  let path = Filename.temp_file "prt_bench_serve" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let idx =
    Index_file.create ~page_size:Common.page_size path ~build:(fun pool ->
        Prtree.load pool dataset)
  in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  (* quota: bucket of exactly 4 batches, no refill, no client retries —
     requests 5.. are E_quota rejections, counted server-side. *)
  let quota_config =
    {
      Server.default_config with
      Server.quota_rate = 0.0;
      quota_burst = float_of_int (4 * batch);
      jobs = 1;
    }
  in
  let stats, report =
    with_server ~config:quota_config idx (fun sock ->
        Load_gen.run
          {
            (Load_gen.default_config ~connect:(fun () -> Client.connect_unix sock)) with
            Load_gen.batch;
            max_retries = 0;
            seed;
          }
          windows)
  in
  emit_row ~mode:"quota" ~workload ~concurrency:1 ~entries:n ~queries:count ~stats ~report;
  table :=
    [
      workload;
      "quota";
      "1";
      string_of_int stats.Load_gen.ok;
      Common.commas stats.Load_gen.matched;
      Printf.sprintf "rejected=%d" report.Server.shed_quota;
    ]
    :: !table;
  if stats.Load_gen.ok <> 4 then
    failwith (Printf.sprintf "serve bench: quota admitted %d requests, expected 4"
                stats.Load_gen.ok);
  (* overload: every batch is wider than the executor admits, so each
     request and its single retry are both shed E_overloaded. *)
  let overload_config =
    { Server.default_config with Server.max_in_flight = batch / 2; jobs = 1 }
  in
  let stats, report =
    with_server ~config:overload_config idx (fun sock ->
        Load_gen.run
          {
            (Load_gen.default_config ~connect:(fun () -> Client.connect_unix sock)) with
            Load_gen.batch;
            max_retries = 1;
            base_backoff_ms = 1.0;
            max_backoff_ms = 5.0;
            seed;
          }
          windows)
  in
  emit_row ~mode:"overload" ~workload ~concurrency:1 ~entries:n ~queries:count ~stats ~report;
  table :=
    [
      workload;
      "overload";
      "1";
      string_of_int stats.Load_gen.ok;
      Common.commas stats.Load_gen.matched;
      Printf.sprintf "shed=%d" report.Server.shed_overload;
    ]
    :: !table;
  if stats.Load_gen.ok <> 0 || report.Server.shed_overload <> 2 * stats.Load_gen.sent then
    failwith "serve bench: overload column did not shed every attempt";
  Table.print
    ~header:[ "workload"; "mode"; "clients"; "ok"; "matched"; "shed" ]
    (List.rev !table)
