(* Domain-safety of the telemetry layer: concurrent counter/histogram
   updates from N domains must aggregate to the exact sequential sum
   once the domains have joined (each domain writes a private stripe;
   exiting domains fold into the retired accumulator), the per-domain
   flight recorder must export a valid multi-track Chrome trace, a
   deterministic kill-point crash must leave an automatic dump whose
   last event is the failure, and the single-domain query path and the
   batched executor must tick identical logical-visit counters — the
   cross-mode I/O-accounting invariant. *)

module Json = Prt_obs.Json
module Metrics = Prt_obs.Metrics
module Flight = Prt_obs.Flight
module Trace = Prt_obs.Trace
module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Failpoint = Prt_storage.Failpoint
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree

let with_collecting f =
  Metrics.set_collecting true;
  Fun.protect ~finally:(fun () -> Metrics.set_collecting false) f

(* --- concurrent counters and histograms: exact totals after join --- *)

let test_concurrent_metrics =
  let gen =
    QCheck.Gen.(
      pair (int_range 2 6) (int_range 100 2_000) >>= fun (domains, ops) ->
      return (domains, ops))
  in
  let print (d, k) = Printf.sprintf "domains=%d ops=%d" d k in
  QCheck.Test.make ~name:"N domains hammering shared metrics sum exactly" ~count:10
    (QCheck.make ~print gen) (fun (domains, ops) ->
      let c_tick = Metrics.counter "test.domains.tick" in
      let c_add = Metrics.counter "test.domains.add" in
      let h = Metrics.histogram "test.domains.hist" in
      let tick0 = Metrics.value c_tick in
      let add0 = Metrics.value c_add in
      let hcount0 = Metrics.histogram_count h in
      let hsum0 = Metrics.histogram_sum h in
      with_collecting (fun () ->
          let worker () =
            for i = 1 to ops do
              Metrics.tick c_tick;
              Metrics.add c_add 3;
              Metrics.observe h ((i mod 50) + 1)
            done
          in
          let doms = Array.init domains (fun _ -> Domain.spawn worker) in
          Array.iter Domain.join doms);
      let per_domain_hsum = ref 0 in
      for i = 1 to ops do
        per_domain_hsum := !per_domain_hsum + (i mod 50) + 1
      done;
      Metrics.value c_tick - tick0 = domains * ops
      && Metrics.value c_add - add0 = 3 * domains * ops
      && Metrics.histogram_count h - hcount0 = domains * ops
      && Metrics.histogram_sum h - hsum0 = domains * !per_domain_hsum)

(* --- percentile estimation --- *)

let test_percentiles () =
  let h = Metrics.histogram "test.domains.pctl" in
  Alcotest.(check bool) "empty histogram -> nan" true (Float.is_nan (Metrics.percentile h 50.));
  with_collecting (fun () -> for v = 1 to 100 do Metrics.observe h v done);
  let p q = Metrics.percentile h q in
  Alcotest.(check (float 0.0)) "p0 clamps to min" 1.0 (p 0.);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 100.0 (p 100.);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "p%g <= p%g" lo hi)
        true
        (p lo <= p hi))
    [ (0., 50.); (50., 95.); (95., 99.); (99., 100.) ];
  (* The median of 1..100 lives in the bucket holding rank 50. *)
  let m = p 50. in
  Alcotest.(check bool) "median plausible" true (m >= 30. && m <= 70.)

(* --- flight recorder: multi-domain chrome export --- *)

(* Replays the same validation as bench/check_json.ml: monotone
   timestamps, per-track span balance, "X" events with non-negative
   durations. *)
let check_chrome_doc doc =
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      let ts =
        match Option.bind (Json.member "ts" e) Json.to_number with
        | Some t -> t
        | None -> Alcotest.fail "event without ts"
      in
      Alcotest.(check bool) "monotone ts" true (ts >= !last_ts);
      last_ts := ts;
      match Json.member "ph" e with
      | Some (Json.Str "X") -> (
          match Option.bind (Json.member "dur" e) Json.to_number with
          | Some d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.)
          | None -> Alcotest.fail "X without dur")
      | Some (Json.Str ("B" | "E" | "i")) -> ()
      | _ -> Alcotest.fail "bad ph")
    events;
  events

let test_flight_multidomain () =
  Flight.clear ();
  let worker i () =
    Flight.begin_span "work" ~arg:i;
    Flight.point "step" ~arg:i ~note:"inner";
    Flight.end_span "work" ~arg:i
  in
  let doms = Array.init 4 (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join doms;
  Alcotest.(check bool) "recorded something" true (Flight.total_recorded () >= 12);
  let doc = Json.of_string (Json.to_string (Flight.chrome_json ())) in
  let events = check_chrome_doc doc in
  (* Each worker's begin/end pair became one "X" complete event. *)
  let completes =
    List.filter
      (fun e ->
        Json.member "ph" e = Some (Json.Str "X")
        && Json.member "name" e = Some (Json.Str "work"))
      events
  in
  Alcotest.(check int) "one complete span per domain" 4 (List.length completes);
  let tids =
    List.sort_uniq compare
      (List.filter_map (fun e -> Option.bind (Json.member "tid" e) Json.to_int) completes)
  in
  Alcotest.(check int) "spans live on distinct tracks" 4 (List.length tids)

(* --- deterministic crash leaves an autodump, failure last --- *)

let test_crash_autodump () =
  let dump = Filename.temp_file "prt_flightrec" ".json" in
  let prev = Flight.dump_path () in
  let path = Filename.temp_file "prt_crash" ".idx" in
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_path prev;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ dump; path ])
    (fun () ->
      Flight.set_dump_path (Some dump);
      Flight.clear ();
      Sys.remove path;
      let entries = Helpers.random_entries ~n:200 ~seed:5 in
      let fp = Failpoint.create (Failpoint.crash_after 2) in
      (match
         Index_file.create ~page_size:Helpers.small_page_size ~crash:fp path
           ~build:(fun pool -> Prtree.load pool entries)
       with
      | idx ->
          Index_file.close idx;
          Alcotest.fail "crash budget never fired"
      | exception Failpoint.Simulated_crash _ -> ());
      (* The autodump was written at the instant of the failure and its
         chronologically last event is the failure itself. *)
      let doc = Json.of_file dump in
      let events = check_chrome_doc doc in
      Alcotest.(check bool) "dump non-empty" true (events <> []);
      let last =
        List.fold_left
          (fun best e ->
            let ts = Option.get (Option.bind (Json.member "ts" e) Json.to_number) in
            match best with Some (bts, _) when bts > ts -> best | _ -> Some (ts, e))
          None events
      in
      match last with
      | Some (_, e) ->
          Alcotest.(check (option string))
            "failing event last" (Some "failpoint.crash")
            (Option.bind (Json.member "name" e) Json.to_str)
      | None -> Alcotest.fail "no events")

(* --- cross-mode visit accounting: sequential = batched executor --- *)

let test_cross_mode_accounting () =
  let pool = Helpers.small_pool () in
  let entries = Helpers.random_entries ~n:2_000 ~seed:9 in
  let tree = Prtree.load pool entries in
  let queries = Helpers.random_queries ~n:40 ~seed:10 in
  let c_leaf = Metrics.counter "query.leaf_visits" in
  let c_internal = Metrics.counter "query.internal_visits" in
  let c_matched = Metrics.counter "query.matched" in
  let snap () = (Metrics.value c_leaf, Metrics.value c_internal, Metrics.value c_matched) in
  let delta (l0, i0, m0) (l1, i1, m1) = (l1 - l0, i1 - i0, m1 - m0) in
  with_collecting (fun () ->
      let s0 = snap () in
      let seq_matched =
        Array.fold_left (fun acc q -> acc + (Rtree.query_count tree q).Rtree.matched) 0 queries
      in
      let seq = delta s0 (snap ()) in
      let s1 = snap () in
      let results = Qexec.run ~jobs:3 (Qexec.create tree) queries in
      let par = delta s1 (snap ()) in
      let total = Rtree.fresh_stats () in
      Array.iter (fun (_, s) -> Rtree.merge_stats total s) results;
      let par_matched = total.Rtree.matched in
      Alcotest.(check int) "matched agree" seq_matched par_matched;
      Alcotest.(check (triple int int int))
        "leaf/internal/matched counters identical across modes" seq par)

(* --- spans live on their own domain's ring --- *)

let named name events = List.filter (fun e -> Json.member "name" e = Some (Json.Str name)) events
let tid e = Option.bind (Json.member "tid" e) Json.to_int
let self () = (Domain.self () :> int)

let test_spans_on_own_track () =
  Flight.clear ();
  (* Both spans are open at once: each side waits inside its span until
     the other is inside its own. *)
  let inside = Atomic.make 0 in
  let meet () =
    Atomic.incr inside;
    while Atomic.get inside < 2 do Domain.cpu_relax () done
  in
  let spawned =
    Trace.with_span "test.span.main" (fun () ->
        let d =
          Domain.spawn (fun () ->
              Trace.with_span "test.span.spawned" meet;
              self ())
        in
        meet ();
        Domain.join d)
  in
  let events = check_chrome_doc (Json.of_string (Json.to_string (Flight.chrome_json ()))) in
  List.iter
    (fun (name, track) ->
      match named name events with
      | [ e ] ->
          Alcotest.(check (option string)) (name ^ " is an X event") (Some "X")
            (Option.bind (Json.member "ph" e) Json.to_str);
          Alcotest.(check (option int)) (name ^ " on its domain's track") (Some track) (tid e)
      | l -> Alcotest.failf "%s: %d events, expected exactly one" name (List.length l))
    [ ("test.span.main", self ()); ("test.span.spawned", spawned) ]

let test_one_batch_span () =
  let pool = Helpers.small_pool () in
  let tree = Prtree.load pool (Helpers.random_entries ~n:1_000 ~seed:3) in
  let queries = Helpers.random_queries ~n:8 ~seed:4 in
  Flight.clear ();
  with_collecting (fun () -> ignore (Qexec.run ~jobs:2 (Qexec.create tree) queries));
  let events = check_chrome_doc (Json.of_string (Json.to_string (Flight.chrome_json ()))) in
  match named "qexec.batch" events with
  | [ e ] ->
      Alcotest.(check (option string)) "an X event" (Some "X")
        (Option.bind (Json.member "ph" e) Json.to_str);
      Alcotest.(check (option int)) "on the calling domain's track" (Some (self ())) (tid e);
      let arg k = Option.bind (Json.member "args" e) (fun a -> Option.bind (Json.member k a) Json.to_int) in
      Alcotest.(check (option int)) "carries its queries" (Some 8) (arg "queries");
      Alcotest.(check (option int)) "carries its jobs" (Some 2) (arg "jobs");
      Alcotest.(check (option int)) "carries its counter deltas" (Some 1) (arg "qexec.batches")
  | l -> Alcotest.failf "%d qexec.batch events, expected exactly one" (List.length l)

let suite =
  [
    Helpers.qcheck_case test_concurrent_metrics;
    Alcotest.test_case "percentile estimation" `Quick test_percentiles;
    Alcotest.test_case "flight recorder multi-domain chrome export" `Quick
      test_flight_multidomain;
    Alcotest.test_case "kill-point crash leaves autodump, failure last" `Quick
      test_crash_autodump;
    Alcotest.test_case "sequential and qexec tick identical visit counters" `Quick
      test_cross_mode_accounting;
    Alcotest.test_case "spans opened at once land on their own domain's track" `Quick
      test_spans_on_own_track;
    Alcotest.test_case "a multi-domain batch is one span on the calling domain" `Quick
      test_one_batch_span;
  ]
