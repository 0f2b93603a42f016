(* The experiment harness: one subcommand per table/figure of the paper
   (see DESIGN.md's experiment index), plus the extension experiments.
   `all` runs everything in paper order. *)

open Cmdliner
module Trace = Prt_obs.Trace
module Flight = Prt_obs.Flight

(* PRT_TRACE=out.json writes the flight recorder's rings at the end of
   the run — every span (builds, sorts, merges, query batches) with its
   counter deltas — as a Chrome trace-event file loadable in Perfetto /
   about:tracing, plus a span summary table on stdout. *)
let trace_out = Sys.getenv_opt "PRT_TRACE"

(* Each experiment runs inside its own span and JSON row collector, so a
   traced `all` run decomposes cleanly per figure. *)
let instrumented name f ~scale ~seed =
  Bench_json.start name;
  Fun.protect ~finally:Bench_json.finish (fun () ->
      Trace.with_span ("exp." ^ name) (fun () -> f ~scale ~seed))

let span_report () =
  let stats = Trace.summary () in
  if stats <> [] then begin
    Printf.printf "\n== span summary ==\n";
    let rows =
      List.map
        (fun s ->
          [
            s.Trace.span_name;
            string_of_int s.Trace.calls;
            Printf.sprintf "%.1f" (s.Trace.total_us /. 1000.0);
            String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.Trace.io);
          ])
        stats
    in
    Prt_util.Table.print ~header:[ "span"; "calls"; "total ms"; "I/O deltas" ] rows
  end

let scale_arg =
  let doc =
    "Dataset scale relative to the default 1:100 of the paper (1.0 means e.g. 167K rectangles \
     for Eastern; the paper used 16.7M). The memory budget of the external algorithms scales \
     along."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let seed_arg =
  let doc = "Base random seed (all workloads are deterministic in it)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let experiments =
  [
    ("fig9", "Bulk-loading I/Os and seconds on TIGER-like data (Figure 9)", Exp_build.fig9);
    ("fig10", "Bulk-loading I/Os vs dataset size (Figure 10)", Exp_build.fig10);
    ("fig11", "TGS bulk-loading cost across distributions (Figure 11)", Exp_build.fig11);
    ("build", "Page-trailer (CRC-32C) overhead on bulk loads", Exp_build.checksum);
    ("fig12", "Query cost vs query size, Western (Figure 12)", Exp_query.fig12);
    ("fig13", "Query cost vs query size, Eastern (Figure 13)", Exp_query.fig13);
    ("fig14", "Query cost vs dataset size (Figure 14)", Exp_query.fig14);
    ("fig15", "Query cost on SIZE/ASPECT/SKEWED (Figure 15)", Exp_query.fig15);
    ("table1", "Query cost on CLUSTER (Table 1)", Exp_extreme.table1);
    ("thm3", "Zero-output worst-case query (Theorem 3)", Exp_extreme.thm3);
    ("bound", "PR-tree O(sqrt(N/B)) query bound check (Lemma 2)", Exp_extreme.bound);
    ("nd", "3-D PR-tree query bound check (Theorem 2)", Exp_nd.nd);
    ("logm", "Logarithmic-method dynamization (Section 4)", Exp_dynamic.logm);
    ("degrade", "Query degradation under heuristic updates", Exp_dynamic.degrade);
    ("join", "Spatial join across index variants", Exp_ablate.join);
    ("ablate", "Ablations: priority-leaf size, memory, cache, Hilbert order", Exp_ablate.ablate);
    ( "throughput",
      "Batched and file-backed query answers against the sequential loop; telemetry overhead",
      Exp_throughput.throughput );
    ( "resilience",
      "Degraded-query coverage and deadline cutoffs on an unreliable disk",
      Exp_query.resilience );
    ("mvcc", "Checked snapshot reads during commits (writers never block readers)", Exp_mvcc.mvcc);
    ( "serve",
      "Network serving tier: oracle-checked answers, quota and overload shedding",
      Exp_serve.serve );
    ( "ingest",
      "Crash-safe LSM ingestion: write amplification, merges, WAL replay",
      Exp_ingest.ingest );
  ]

let run_named name f =
  let run scale seed =
    instrumented name f ~scale ~seed;
    ()
  in
  let term = Term.(const run $ scale_arg $ seed_arg) in
  Cmd.v (Cmd.info name ~doc:(List.assoc name (List.map (fun (n, d, _) -> (n, d)) experiments))) term

let all_cmd =
  let doc = "Run every experiment in paper order." in
  let term =
    Term.(
      const (fun scale seed ->
          List.iter (fun (n, _, f) -> instrumented n f ~scale ~seed) experiments)
      $ scale_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "all" ~doc) term

let () =
  let doc = "PR-tree reproduction experiment harness (Arge et al., SIGMOD 2004)" in
  let info = Cmd.info "prt-bench" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let cmds = all_cmd :: List.map (fun (n, _, f) -> run_named n f) experiments in
  let eval () = Cmd.eval (Cmd.group ~default info cmds) in
  match trace_out with
  | None -> exit (eval ())
  | Some path ->
      (* Spans carry counter deltas while collection is on, and this
         domain's ring holds the whole run. *)
      Prt_obs.Metrics.set_collecting true;
      Flight.reserve (1 lsl 20);
      let code = Trace.with_span "bench" eval in
      span_report ();
      let n = Flight.dump path in
      Printf.printf "\nwrote %d trace events to %s\n" n path;
      exit code
