(* The benchmark's own checks.

   - Determinism: two tiny runs of each workload with one seed give
     bit-identical deterministic metrics and no failures.
   - Seeding: another seed changes every workload's inputs.
   - Timing hygiene: the harness's per-operation bookkeeping (clock
     reads, latency samples, answer records, spans) allocates nothing.
   - Slices left empty by a full latency buffer do not move the
     phase's figures. *)

open Perfbench

let deterministic =
  [
    "leaf_reads_per_query";
    "write_amp";
    "space_amp";
    "serve.request_bytes";
    "serve.reply_bytes";
    "rtree.internal_reads_per_query";
    "rtree.results_per_query";
    "storage.mmap_pages_per_query";
    "storage.mmap_crc_sweeps";
    "storage.pages_written";
    "lsm.merges";
    "lsm.bytes_written_per_insert";
    "lsm.tombstones";
    "lsm.replayed";
  ]

let cfg workload seed =
  {
    Bench.workload;
    seed;
    seconds = 0.05;
    trace = false;
    scale = 0.02;
    dir = Printf.sprintf "determinism-%s-%d" workload seed;
  }

let checks = ref 0
let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr checks;
      if not ok then begin
        print_endline ("FAIL " ^ msg);
        incr failures
      end)
    fmt

let () =
  List.iter
    (fun (w, _) ->
      let a = Workloads.run (cfg w 7) and b = Workloads.run (cfg w 7) in
      check (a.Bench.failed = 0 && b.Bench.failed = 0) "%s: no failed operations" w;
      let measured = List.filter (fun m -> Bench.get a m <> None) deterministic in
      check (List.mem "leaf_reads_per_query" measured) "%s: measures leaf_reads_per_query" w;
      List.iter
        (fun m ->
          let bits r = Option.map Int64.bits_of_float (Bench.get r m) in
          check (bits a = bits b) "%s: %s bit-identical across runs" w m)
        measured)
    Workloads.all

let () =
  let c7 = cfg "" 7 and c8 = cfg "" 8 in
  let _, w7, _ = Serve_point.inputs c7 and _, w8, _ = Serve_point.inputs c8 in
  check (w7 <> w8) "serve-point: seed changes windows";
  let i7 = Ingest_mixed.inputs c7 and i8 = Ingest_mixed.inputs c8 in
  check (i7.Ingest_mixed.windows <> i8.Ingest_mixed.windows) "ingest-mixed: seed changes the query order"

let () =
  let lat = Samples.create 1000 and answers = Oracle.answers 10 in
  let spans = Spans.create ~names:[| "op" |] ~capacity:1000 in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    Clock.read_begins ();
    let t0 = Clock.now () in
    let t1 = Clock.now () in
    Samples.add_read lat ~wall_ns:(t1 - t0);
    Oracle.note answers (i mod 10) i i;
    Spans.record spans ~name:0 ~parent:(-1) ~rid:i ~start:t0 ~stop:t1
  done;
  let words = Gc.minor_words () -. before in
  check (words = 0.0) "timed-loop bookkeeping allocates nothing (%.0f minor words)" words

(* A latency buffer that fills early leaves the last slices empty; they
   must not move the phase's figures. *)
let () =
  let r = Bench.result () and lat = Samples.create 4 in
  List.iter (Samples.add lat) [ 1000; 2000; 3000; 4000 ];
  let full = { Bench.ops = 4; elapsed_ns = 40_000_000; samples = 4; p50 = 2.0 } in
  let empty = { Bench.ops = 0; elapsed_ns = 0; samples = 0; p50 = nan } in
  Bench.slice_metrics r ~prefix:"" lat [ full; empty; empty ];
  check
    (Bench.get r "ops_per_s" = Some 100.0 && Bench.get r "p50_us" = Some 2.0)
    "empty slices leave the phase's figures alone"

let () =
  Printf.printf "perfbench: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
