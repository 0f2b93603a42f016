(* Observability smoke (test half of @obs-smoke; the bench half runs
   the regression gate's selftest): a deterministic concurrent-metrics
   matrix — D domains hammering shared counters/histograms must sum
   exactly once joined — and a flight-recorder round-trip: a multicore
   query batch with per-domain recording, dumped to a Chrome trace file
   that must parse back with balanced per-track spans, plus a recorded
   failure that must appear in the autodump.  First of all it checks
   that the counters worker domains tick are registered before any of
   their modules is used.  Exits 1 on any violation. *)

module Json = Prt_obs.Json
module Metrics = Prt_obs.Metrics
module Flight = Prt_obs.Flight
module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Prtree = Prt_prtree.Prtree

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* --- concurrent-metrics matrix --- *)

let metrics_matrix () =
  List.iter
    (fun (domains, ops) ->
      let c = Metrics.counter "obs_smoke.count" in
      let h = Metrics.histogram "obs_smoke.hist" in
      let c0 = Metrics.value c in
      let n0 = Metrics.histogram_count h in
      let s0 = Metrics.histogram_sum h in
      Metrics.set_collecting true;
      let worker () =
        for i = 1 to ops do
          Metrics.tick c;
          Metrics.observe h ((i mod 32) + 1)
        done
      in
      let doms = Array.init domains (fun _ -> Domain.spawn worker) in
      Array.iter Domain.join doms;
      Metrics.set_collecting false;
      let expect_sum = ref 0 in
      for i = 1 to ops do
        expect_sum := !expect_sum + (i mod 32) + 1
      done;
      let tag = Printf.sprintf "metrics %dx%d" domains ops in
      check (tag ^ ": counter exact") (Metrics.value c - c0 = domains * ops);
      check (tag ^ ": histogram count exact") (Metrics.histogram_count h - n0 = domains * ops);
      check (tag ^ ": histogram sum exact") (Metrics.histogram_sum h - s0 = domains * !expect_sum);
      Printf.printf "metrics matrix: %d domains x %d ops ok\n%!" domains ops)
    [ (2, 5_000); (4, 2_000); (8, 500) ]

(* --- flight-recorder dump round-trip --- *)

(* The same well-formedness bench/check_json.ml enforces: monotone
   timestamps, per-tid B/E balance, X durations >= 0. *)
let validate_trace path =
  let doc = Json.of_file path in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ ->
        check (path ^ ": traceEvents present") false;
        []
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_str in
      let num k = Option.bind (Json.member k e) Json.to_number in
      (match num "ts" with
      | Some ts ->
          check "monotone ts" (ts >= !last_ts);
          last_ts := ts
      | None -> check "event has ts" false);
      let tid = match num "tid" with Some t -> int_of_float t | None -> 0 in
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match (str "ph", str "name") with
      | Some "B", Some n -> Hashtbl.replace stacks tid (n :: stack)
      | Some "E", Some n -> (
          match stack with
          | top :: rest when top = n -> Hashtbl.replace stacks tid rest
          | _ -> check "E matches B per tid" false)
      | Some "X", _ -> check "X has dur >= 0" (match num "dur" with Some d -> d >= 0. | None -> false)
      | Some "i", _ -> ()
      | _ -> check "known ph" false)
    events;
  Hashtbl.iter (fun _ stack -> check "per-tid stacks drained" (stack = [])) stacks;
  events

let flight_roundtrip () =
  let dump = Filename.temp_file "obs_smoke" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_path None;
      try Sys.remove dump with Sys_error _ -> ())
    (fun () ->
      Flight.set_dump_path (Some dump);
      Flight.clear ();
      (* A real multicore batch: every worker domain records query
         spans on its own ring. *)
      let pool = Buffer_pool.create ~capacity:4096 (Pager.create_memory ()) in
      let rng = Rng.create 77 in
      let entries =
        Array.init 3_000 (fun i ->
            let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
            Entry.make (Rect.make ~xmin:x ~ymin:y ~xmax:(x +. 0.01) ~ymax:(y +. 0.01)) i)
      in
      let tree = Prtree.load pool entries in
      let queries =
        Array.init 32 (fun i ->
            let lo = float_of_int (i mod 8) /. 10.0 in
            Rect.make ~xmin:lo ~ymin:lo ~xmax:(lo +. 0.2) ~ymax:(lo +. 0.2))
      in
      ignore (Qexec.run ~jobs:4 (Qexec.create tree) queries);
      check "batch recorded events" (Flight.total_recorded () > 0);
      (* The autodump: a recorded failure writes every ring to disk. *)
      Flight.failure "obs_smoke.injected" ~arg:42 ~note:"synthetic failure";
      let events = validate_trace dump in
      check "dump non-empty" (events <> []);
      let has_failure =
        List.exists (fun e -> Json.member "name" e = Some (Json.Str "obs_smoke.injected")) events
      in
      let has_query =
        List.exists (fun e -> Json.member "name" e = Some (Json.Str "qexec.query")) events
      in
      check "failure event in dump" has_failure;
      check "worker query spans in dump" has_query;
      Printf.printf "flight round-trip: %d events, per-tid spans balanced\n%!"
        (List.length events))

(* --- eager registration --- *)

(* Counters first ticked on worker domains must be registered at module
   initialization: forcing one lazy value from two domains at once
   raises [CamlinternalLazy.Undefined].  Runs first, before any cache,
   quarantine or executor exists in this process. *)
let eager_registration () =
  let registered = List.map fst (Metrics.snapshot_counters ()) in
  List.iter
    (fun name -> check (name ^ " registered at start-up") (List.mem name registered))
    [ "shard_cache.hits"; "resilience.pages_quarantined"; "qexec.batches" ];
  Printf.printf "eager registration: %d counters listed at start-up\n%!"
    (List.length registered)

let () =
  eager_registration ();
  metrics_matrix ();
  flight_roundtrip ();
  if !failures > 0 then begin
    Printf.printf "obs smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "obs smoke: ok"
