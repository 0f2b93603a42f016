(* The observability layer: span balance on the flight recorder's
   rings (including under exceptions), Chrome trace-event
   well-formedness, histogram bucketing, span-level I/O attribution,
   and — most load-bearing — the zero-overhead-off property:
   instrumentation must not perturb the repository's I/O accounting or
   query results in any way. *)

module Json = Prt_obs.Json
module Metrics = Prt_obs.Metrics
module Trace = Prt_obs.Trace
module Flight = Prt_obs.Flight
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Rtree = Prt_rtree.Rtree

(* Every test starts from empty rings and must leave metrics collection
   off, as it found it. *)
let with_clean_trace f =
  Flight.clear ();
  Fun.protect ~finally:(fun () -> Metrics.set_collecting false) f

(* The calling domain's ring, oldest event first. *)
let my_events () =
  Option.value ~default:[] (List.assoc_opt (Domain.self () :> int) (Flight.events ()))

let phases_and_names evs =
  List.map
    (fun e ->
      ( (match e.Flight.fe_kind with
        | Flight.Begin -> "B"
        | Flight.End -> "E"
        | Flight.Point | Flight.Fail -> "i"),
        e.Flight.fe_name ))
    evs

(* --- JSON emitter/parser --- *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 1.5;
      Json.Str "plain";
      Json.Str "quo\"te back\\slash new\nline tab\t";
      Json.Str "unicode: \xc3\xa9\xe2\x82\xac";
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [ ("a", Json.Int 1); ("nested", Json.Obj [ ("b", Json.List [] ) ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      Alcotest.(check bool) ("round-trips: " ^ s) true (Json.of_string s = j))
    samples;
  (* Malformed documents must raise, not mis-parse. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | v -> Alcotest.failf "parsed %S as %s" s (Json.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* --- histogram buckets --- *)

let test_histogram_buckets () =
  List.iter
    (fun (v, k) ->
      Alcotest.(check int) (Printf.sprintf "bucket_index %d" v) k (Metrics.bucket_index v))
    [ (min_int, 0); (-1, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10) ];
  (* bucket_bounds inverts bucket_index on the bucket edges. *)
  for k = 1 to 20 do
    let lo, hi = Metrics.bucket_bounds k in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d" k) k (Metrics.bucket_index lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d" k) k (Metrics.bucket_index hi)
  done;
  Alcotest.(check int) "bucket 0 upper bound" 0 (snd (Metrics.bucket_bounds 0));
  (* observe routes samples into those buckets (only while collecting). *)
  let h = Metrics.histogram "test.obs.hist" in
  Metrics.observe h 5;
  Alcotest.(check int) "observe off = no-op" 0 (Metrics.histogram_count h);
  Metrics.set_collecting true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_collecting false)
    (fun () ->
      List.iter (Metrics.observe h) [ 0; 1; 5; 6; 7 ];
      Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
      Alcotest.(check int) "sum" 19 (Metrics.histogram_sum h);
      Alcotest.(check int) "bucket 0" 1 (Metrics.histogram_bucket h 0);
      Alcotest.(check int) "bucket 1" 1 (Metrics.histogram_bucket h 1);
      Alcotest.(check int) "bucket 3" 3 (Metrics.histogram_bucket h 3))

(* --- registry semantics --- *)

let test_registry () =
  let a = Metrics.counter "test.obs.dedup" in
  let b = Metrics.counter "test.obs.dedup" in
  Metrics.set_collecting true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_collecting false)
    (fun () ->
      Metrics.tick a;
      Alcotest.(check int) "find-or-create shares state" 1 (Metrics.value b);
      Metrics.add b 4;
      Alcotest.(check int) "add" 5 (Metrics.value a));
  (match Metrics.gauge "test.obs.dedup" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise");
  (* The registry JSON export parses back and mentions the counter. *)
  let j = Json.of_string (Json.to_string (Metrics.to_json ())) in
  match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
      Alcotest.(check bool) "counter exported" true (List.mem_assoc "test.obs.dedup" kvs)
  | _ -> Alcotest.fail "no counters object in metrics JSON"

(* --- span balance, including under exceptions --- *)

let test_span_balance () =
  with_clean_trace (fun () ->
      (try
         Trace.with_span "outer" (fun () ->
             Trace.with_span "inner-ok" (fun () -> ());
             Trace.with_span "inner-raise" (fun () -> raise Exit))
       with Exit -> ());
      Flight.point "marker";
      let evs = my_events () in
      Alcotest.(check (list (pair string string)))
        "events balanced under exceptions"
        [
          ("B", "outer");
          ("B", "inner-ok");
          ("E", "inner-ok");
          ("B", "inner-raise");
          ("E", "inner-raise");
          ("E", "outer");
          ("i", "marker");
        ]
        (phases_and_names evs);
      (* Timestamps are monotone non-decreasing. *)
      let rec mono = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "monotone ts" true (a.Flight.fe_ts <= b.Flight.fe_ts);
            mono rest
        | _ -> ()
      in
      mono evs;
      (* The summary pairs them up: each span appears once with one call. *)
      let s = Trace.summary () in
      Alcotest.(check (list (pair string int)))
        "summary calls"
        [ ("inner-ok", 1); ("inner-raise", 1); ("outer", 1) ]
        (List.sort compare (List.map (fun st -> (st.Trace.span_name, st.Trace.calls)) s)))

(* --- Chrome trace JSON well-formedness --- *)

let test_chrome_json () =
  with_clean_trace (fun () ->
      let tricky = "tricky \"name\" with \\ and \n" in
      let note = "arg with \"quotes\" and \xc3\xa9" in
      Trace.with_span tricky
        ~args:[ ("note", Json.Str note) ]
        (fun () -> Trace.with_span "child" (fun () -> ()));
      let doc = Flight.chrome_json () in
      let parsed = Json.of_string (Json.to_string doc) in
      let events =
        match Json.member "traceEvents" parsed with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "no traceEvents"
      in
      (* Each span is one "X" complete event. *)
      Alcotest.(check int) "event count" 2 (List.length events);
      List.iter
        (fun e ->
          if Json.member "ph" e <> Some (Json.Str "X") then Alcotest.fail "bad ph")
        events;
      let span name =
        match List.find_opt (fun e -> Json.member "name" e = Some (Json.Str name)) events with
        | Some e -> e
        | None -> Alcotest.failf "no span %S" name
      in
      let num k e =
        match Option.bind (Json.member k e) Json.to_number with
        | Some v -> v
        | None -> Alcotest.failf "no numeric %s" k
      in
      let outer = span tricky and child = span "child" in
      Alcotest.(check (option string))
        "args round-trip" (Some note)
        (Option.bind (Json.member "args" outer) (fun a -> Option.bind (Json.member "note" a) Json.to_str));
      (* The child closes inside the span open around it, on its track. *)
      let slack = 0.01 in
      Alcotest.(check bool) "child begins inside outer" true (num "ts" child >= num "ts" outer -. slack);
      Alcotest.(check bool) "E matches B" true
        (num "ts" child -. num "ts" outer +. num "dur" child <= num "dur" outer +. slack);
      Alcotest.(check bool) "same track" true (num "tid" child = num "tid" outer))

(* --- span-attributed I/O sums to the pager totals --- *)

let arg_int name args =
  match List.assoc_opt name args with Some (Json.Int n) -> n | _ -> 0

let test_span_io_attribution () =
  with_clean_trace (fun () ->
      Metrics.set_collecting true;
      let stats =
        Trace.with_span "root" (fun () ->
            let pool = Helpers.small_pool () in
            let pager = Buffer_pool.pager pool in
            let entries = Helpers.random_entries ~n:400 ~seed:7 in
            let tree = Prt_prtree.Prtree.load pool entries in
            Buffer_pool.flush pool;
            ignore
              (Rtree.query_count tree (Prt_geom.Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0));
            Pager.snapshot pager)
      in
      let root_end =
        List.find
          (fun e -> e.Flight.fe_kind = Flight.End && e.Flight.fe_name = "root")
          (my_events ())
      in
      (* The root span wraps the pool's whole life, so its counter deltas
         must equal the pager's own statistics exactly. *)
      Alcotest.(check int) "span reads = pager reads" stats.Pager.s_reads
        (arg_int "pager.reads" root_end.Flight.fe_args);
      Alcotest.(check int) "span writes = pager writes" stats.Pager.s_writes
        (arg_int "pager.writes" root_end.Flight.fe_args);
      Alcotest.(check int) "span allocs = pager allocs" stats.Pager.s_allocs
        (arg_int "pager.allocs" root_end.Flight.fe_args))

(* --- the zero-overhead-off property --- *)

(* One deterministic workload: external PR-tree build + a query batch.
   Returns every observable the paper's accounting cares about. *)
let run_workload () =
  let pool = Helpers.small_pool () in
  let pager = Buffer_pool.pager pool in
  let entries = Helpers.random_entries ~n:600 ~seed:11 in
  let file = Prt_rtree.Entry.File.of_array pager entries in
  let tree = Prt_prtree.Ext_build.load ~mem_records:(16 * 14) pool file in
  Buffer_pool.flush pool;
  let queries = Helpers.random_queries ~n:20 ~seed:12 in
  let results =
    Array.to_list queries
    |> List.concat_map (fun q -> Helpers.ids_of (fst (Rtree.query_list tree q)))
  in
  let s = Pager.snapshot pager in
  ((s.Pager.s_reads, s.Pager.s_writes, s.Pager.s_allocs), Buffer_pool.hits pool,
   Buffer_pool.misses pool, results)

let test_zero_overhead_off () =
  with_clean_trace (fun () ->
      (* Baseline: collection was never on in this run of the workload;
         its spans reach the rings without counter deltas. *)
      let base = run_workload () in
      (* Collection switched on and off again, as a traced run leaves it. *)
      Metrics.set_collecting true;
      Metrics.set_collecting false;
      let switched_off = run_workload () in
      (* Full tracing: every span snapshots the counters at both ends. *)
      Metrics.set_collecting true;
      let traced = run_workload () in
      Metrics.set_collecting false;
      let io (x, _, _, _) = x and res (_, _, _, r) = r in
      let hits (_, h, _, _) = h and misses (_, _, m, _) = m in
      Alcotest.(check (triple int int int)) "off: pager identical" (io base) (io switched_off);
      Alcotest.(check (triple int int int)) "traced: pager identical" (io base) (io traced);
      Alcotest.(check int) "off: hits identical" (hits base) (hits switched_off);
      Alcotest.(check int) "traced: hits identical" (hits base) (hits traced);
      Alcotest.(check int) "off: misses identical" (misses base) (misses switched_off);
      Alcotest.(check int) "traced: misses identical" (misses base) (misses traced);
      Alcotest.(check (list int)) "off: results identical" (res base) (res switched_off);
      Alcotest.(check (list int)) "traced: results identical" (res base) (res traced))

(* --- query_profile agrees with query --- *)

let check_profile tree q p =
  let plain = Rtree.query_count tree q in
  Alcotest.(check int) "matched agrees" plain.Rtree.matched p.Rtree.pf_matched;
  Alcotest.(check int) "leaves agree" plain.Rtree.leaf_visited p.Rtree.pf_leaves;
  Alcotest.(check int) "internal agree" plain.Rtree.internal_visited p.Rtree.pf_internal;
  Alcotest.(check int) "levels array spans the height" (Rtree.height tree)
    (Array.length p.Rtree.pf_levels);
  Alcotest.(check int) "per-level sum = nodes visited"
    (plain.Rtree.leaf_visited + plain.Rtree.internal_visited)
    (Array.fold_left ( + ) 0 p.Rtree.pf_levels);
  Alcotest.(check int) "root level holds one node" 1 p.Rtree.pf_levels.(0)

let test_query_profile () =
  let pool = Helpers.small_pool () in
  let entries = Helpers.random_entries ~n:300 ~seed:21 in
  let tree = Prt_prtree.Prtree.load pool entries in
  let q = Prt_geom.Rect.make ~xmin:0.2 ~ymin:0.2 ~xmax:0.6 ~ymax:0.6 in
  let acc = ref [] in
  let p = Rtree.query_profile tree q ~f:(fun e -> acc := Prt_rtree.Entry.id e :: !acc) in
  check_profile tree q p;
  Alcotest.(check string) "pool backend" "pool" p.Rtree.pf_backend;
  Alcotest.(check int) "nothing mapped" 0 p.Rtree.pf_mapped;
  Alcotest.(check int) "callback saw every match" p.Rtree.pf_matched (List.length !acc);
  (* The same profile on an mmap-backed index file comes from the
     mapping, as a plain query does: every visited node is a mapped
     page served, none a pool read. *)
  let path = Filename.temp_file "prt_obs_profile" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let idx =
    Prt_rtree.Index_file.create ~page_size:Helpers.small_page_size ~backend:`Mmap path
      ~build:(fun pool -> Prt_prtree.Prtree.load pool entries)
  in
  Fun.protect ~finally:(fun () -> Prt_rtree.Index_file.close idx) @@ fun () ->
  let ftree = Prt_rtree.Index_file.tree idx in
  let fpool = Rtree.pool ftree in
  let hits0 = Buffer_pool.hits fpool and misses0 = Buffer_pool.misses fpool in
  let p = Rtree.query_profile ftree q ~f:ignore in
  check_profile ftree q p;
  Alcotest.(check string) "mmap backend" "mmap" p.Rtree.pf_backend;
  Alcotest.(check int) "per-level sum = mapped pages served"
    (Array.fold_left ( + ) 0 p.Rtree.pf_levels)
    p.Rtree.pf_mapped;
  Alcotest.(check int) "no fallbacks" 0 p.Rtree.pf_fallbacks;
  Alcotest.(check int) "no pool hits" hits0 (Buffer_pool.hits fpool);
  Alcotest.(check int) "no pool misses" misses0 (Buffer_pool.misses fpool)

let suite =
  [
    Alcotest.test_case "json round-trip and strictness" `Quick test_json_roundtrip;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
    Alcotest.test_case "registry find-or-create and export" `Quick test_registry;
    Alcotest.test_case "span balance under exceptions" `Quick test_span_balance;
    Alcotest.test_case "chrome trace JSON well-formed" `Quick test_chrome_json;
    Alcotest.test_case "span I/O deltas match pager totals" `Quick test_span_io_attribution;
    Alcotest.test_case "zero overhead when off" `Quick test_zero_overhead_off;
    Alcotest.test_case "query_profile agrees with query" `Quick test_query_profile;
  ]
