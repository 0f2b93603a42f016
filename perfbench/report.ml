(* The metric catalogue — the same names, units and directions as
   BENCHMARK.json — and the result printer.  Each per-layer metric names
   the end-to-end metric and workload it should move. *)

type metric = { name : string; unit_ : string; better : string; moves : string }

let m name unit_ better moves = { name; unit_; better; moves }

let end_to_end =
  [
    m "ops_per_s" "1/s" "higher" "";
    m "p50_us" "us" "lower" "";
    m "p999_us" "us" "lower" "";
    m "setup_s" "s" "lower" "";
    m "leaf_reads_per_query" "count" "lower" "";
    m "write_amp" "ratio" "lower" "";
    m "space_amp" "ratio" "lower" "";
    m "peak_rss_mb" "MB" "lower" "";
    m "ok_ratio" "ratio" "higher" "";
  ]

let serve = "serve-point"
let ingest = "ingest-mixed"
let at metrics workloads = String.concat "," metrics ^ " @ " ^ String.concat "," workloads

let per_layer =
  [
    m "serve.send_us" "us" "lower" (at [ "p50_us"; "ops_per_s" ] [ serve ]);
    m "serve.step_us" "us" "lower" (at [ "p50_us"; "ops_per_s" ] [ serve ]);
    m "serve.recv_us" "us" "lower" (at [ "p50_us"; "ops_per_s" ] [ serve ]);
    m "serve.self_us" "us" "lower" (at [ "p50_us" ] [ serve ]);
    m "serve.request_bytes" "bytes" "lower" (at [ "ops_per_s" ] [ serve ]);
    m "serve.reply_bytes" "bytes" "lower" (at [ "ops_per_s" ] [ serve ]);
    m "qexec.batch_us" "us" "lower" (at [ "p50_us" ] [ serve ]);
    m "qexec.self_us" "us" "lower" (at [ "p50_us" ] [ serve ]);
    m "rtree.batch_us" "us" "lower" (at [ "p50_us" ] [ serve ]);
    m "rtree.query_us" "us" "lower" (at [ "p50_us" ] [ serve ]);
    m "rtree.query_p999_us" "us" "lower" (at [ "p999_us" ] [ serve ]);
    m "rtree.internal_reads_per_query" "count" "lower" (at [ "p50_us" ] [ serve ]);
    m "rtree.results_per_query" "count" "higher" (at [ "p50_us" ] [ serve ]);
    m "rtree.leaf_yield" "ratio" "higher" (at [ "p50_us" ] [ serve ]);
    m "index_file.create_s" "s" "lower" (at [ "setup_s" ] [ serve ]);
    m "index_file.warmup_s" "s" "lower" (at [ "setup_s" ] [ serve ]);
    m "storage.mmap_pages_per_query" "count" "lower" (at [ "p50_us" ] [ serve ]);
    m "storage.mmap_crc_sweeps" "count" "lower" (at [ "setup_s" ] [ serve ]);
    m "storage.mmap_fallbacks" "count" "lower" (at [ "p50_us" ] [ serve; ingest ]);
    m "storage.pages_written" "count" "lower" (at [ "write_amp" ] [ serve ]);
    m "prtree.load_s" "s" "lower" (at [ "setup_s" ] [ serve ]);
    m "workloads.generate_s" "s" "lower" (at [ "setup_s" ] [ serve; ingest ]);
    m "lsm.insert_us" "us" "lower" (at [ "ops_per_s" ] [ ingest ]);
    m "lsm.delete_us" "us" "lower" (at [ "ops_per_s" ] [ ingest ]);
    m "lsm.merge_ms" "ms" "lower" (at [ "ops_per_s" ] [ ingest ]);
    m "lsm.merge_s" "s" "lower" (at [ "ops_per_s" ] [ ingest ]);
    m "lsm.merges" "count" "lower" (at [ "write_amp" ] [ ingest ]);
    m "lsm.bytes_written_per_insert" "bytes" "lower" (at [ "write_amp" ] [ ingest ]);
    m "lsm.components_per_query" "count" "lower" (at [ "p50_us"; "leaf_reads_per_query" ] [ ingest ]);
    m "lsm.tombstones" "count" "lower" (at [ "space_amp" ] [ ingest ]);
    m "lsm.populate_s" "s" "lower" (at [ "setup_s" ] [ ingest ]);
    m "lsm.reopen_s" "s" "lower" (at [ "setup_s" ] [ ingest ]);
    m "lsm.replayed" "count" "lower" (at [ "setup_s" ] [ ingest ]);
    m "trace.overhead_p50_us" "us" "lower" "tracing overhead: traced minus untraced p50_us";
    m "trace.overhead_pct" "%" "lower" "tracing overhead: ops_per_s lost to tracing";
    m "host.steal_ticks" "count" "lower" "diagnostic: hypervisor steal over the timed phases";
    m "host.interrupted_pct" "%" "lower"
      "diagnostic: reads the host interrupted, recorded with their CPU time";
  ]

(* Shortest decimal that reads back as the same float. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* Print the human-readable lines, then the one-line JSON result last.
   End-to-end metrics must all be measured; a per-layer metric of a
   layer this workload does not run reads 0.  Returns false when an
   end-to-end metric is missing or not finite. *)
let print ~trace (r : Bench.result) =
  List.iter print_endline (List.rev r.Bench.notes);
  let value mt = Bench.get r mt.name in
  Printf.printf "end-to-end (%s):\n" (if trace then "untraced part of the traced run" else "measured");
  List.iter
    (fun mt ->
      match value mt with
      | Some v -> Printf.printf "  %-22s %14s %s\n" mt.name (number v) mt.unit_
      | None -> Printf.printf "  %-22s %14s\n" mt.name "-")
    end_to_end;
  Printf.printf "  %-22s %14s ratio\n" "fail_ratio" (number (Bench.fail_ratio r));
  Printf.printf "per-layer (%s)  -> the end-to-end metric @ workload it should move\n"
    (if trace then "traced run" else "untraced run: set-up and counts only");
  List.iter
    (fun mt ->
      match value mt with
      | Some v -> Printf.printf "  %-32s %18s %-5s -> %s\n" mt.name (number v) mt.unit_ mt.moves
      | None -> if trace then Printf.printf "  %-32s %18s %-5s -> %s\n" mt.name "0" mt.unit_ mt.moves)
    per_layer;
  let metrics = if trace then per_layer else end_to_end in
  let ok = ref true in
  let fields =
    List.map
      (fun mt ->
        let v =
          match value mt with
          | Some v when Float.is_finite v -> v
          | _ when trace -> 0.0
          | _ ->
              ok := false;
              0.0
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (number v) mt.unit_)
      metrics
  in
  let correct = !ok && r.Bench.failed = 0 && r.Bench.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 r.Bench.attempted) r.Bench.failed (String.concat ", " fields);
  !ok
