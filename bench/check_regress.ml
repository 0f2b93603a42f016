(* Performance-regression gate over BENCH_*.json result files.

   Compares fresh benchmark rows against committed baselines (the
   bench/baselines/ directory) and exits 1 when a tracked metric moves
   past its tolerance band, so @bench-smoke catches an algorithmic
   regression the unit tests cannot see (a packing change that doubles
   I/Os still builds a valid tree).

   Only *deterministic* metrics are gated.  Wall-clock fields (the
   figures' seconds, the metrics-overhead ratio, ...) vary with the
   machine and CI load; gating them would make the alias flaky, so they
   are ignored entirely.  The tracked set:

     metric          direction   tolerance   rationale
     ios             lower       5%          pager I/O is deterministic
     leaves_visited  lower       10%         per-query leaf touches
     total_leaves    lower       10%
     mean_leaves     lower       10%         averaged over query mix
     mean_leaves_clean lower     10%
     relative        lower       10%         leaves / ceil(T/B)
     matched         exact       --          result size: correctness
     mean_output     exact       --          answer size per query
     entries         exact       --          dataset size: run identity
     windows_served  exact       --          mapped node visits per pass
     fallbacks       exact       --          mmap -> pread degradations

   The lower-is-better tolerance absorbs benign noise (query sampling,
   cache boundary effects) while a real regression — the failure mode
   this gate exists for — lands far outside 5-10%.  Improvements are
   reported but never fail: commit a refreshed baseline to ratchet.

   A row's identity is its string fields plus the workload-shape int
   fields (n, jobs, queries, readers, pages, rate, deadline_ms) —
   NOT [cores], which depends on the machine the baseline was recorded
   on.  A baseline row with no matching fresh row, or a tracked metric
   present in the baseline but missing fresh, fails the gate: silent
   coverage loss is a regression too.  Fresh rows with no baseline are
   reported as new and pass (refresh the baseline to start tracking).

   Usage:
     check_regress --baselines DIR [--fresh DIR] [--selftest] NAME...
   where each NAME is a result file (e.g. BENCH_fig9.json) looked up in
   both directories.  --selftest proves the gate trips: each tracked
   metric of each baseline row, perturbed in memory past its tolerance
   in a copy of its own, must fail against the baseline, and the file
   must pass unperturbed; it prints how many injections each metric
   got. *)

module Json = Prt_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

type direction = Lower of float  (* relative tolerance *) | Exact

let tracked =
  [
    ("ios", Lower 0.05);
    ("leaves_visited", Lower 0.10);
    ("total_leaves", Lower 0.10);
    ("mean_leaves", Lower 0.10);
    ("mean_leaves_clean", Lower 0.10);
    ("relative", Lower 0.10);
    ("matched", Exact);
    ("mean_output", Exact);
    ("entries", Exact);
    (* serving-tier counters: request outcomes are deterministic (fixed
       windows, fixed batching, quotas that never refill), so shed and
       admitted counts gate exactly *)
    ("ok", Exact);
    ("shed", Exact);
    ("quota_rejected", Exact);
    (* read-backend counters: mapped windows served and pread fallbacks
       per counted pass are deterministic (fixed tree, fixed query
       batch, every page verifying), so they gate exactly — a fallback
       appearing on the mmap rows means the mapped path silently
       degraded to pread *)
    ("windows_served", Exact);
    ("fallbacks", Exact);
    (* LSM-ingestion counters: merge scheduling is deterministic in the
       inline phases (fixed entries, fixed buffer capacity), so the
       component count, merge count, and WAL replay/orphan counts gate
       exactly; write amplification rides page-build determinism with a
       band for WAL segment-boundary jitter.  (The per-level histogram
       is a string field, so it gates through row identity.) *)
    ("components", Exact);
    ("merges", Exact);
    ("replayed", Exact);
    ("orphans", Exact);
    ("write_amp", Lower 0.10);
  ]

let identity_ints =
  [
    "n"; "jobs"; "queries"; "readers"; "pages"; "rate"; "deadline_ms"; "concurrency";
    "batch"; "buffer";
  ]

(* --- rows --- *)

let rows_of_file path =
  let j = try Json.of_file path with Json.Parse_error m -> fail "%s: %s" path m in
  match Json.member "rows" j with
  | Some (Json.List rows) ->
      List.map (function Json.Obj kv -> kv | _ -> fail "%s: non-object row" path) rows
  | _ -> fail "%s: no rows array" path

(* The identity key: every string field plus the whitelisted shape
   ints, in field order, rendered "k=v k=v".  Stable because emitters
   write fields in a fixed order. *)
let row_key kv =
  let parts =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
        | Json.Int i when List.mem k identity_ints -> Some (Printf.sprintf "%s=%d" k i)
        | _ -> None)
      kv
  in
  String.concat " " parts

let number k kv = Option.bind (List.assoc_opt k kv) Json.to_number

(* --- comparison --- *)

type verdict = { mutable failures : int; mutable improvements : int; mutable checked : int }

(* [quiet] drops the report lines (the selftest's injections fail on
   purpose); the verdict counts them all the same. *)
let say ~quiet fmt = if quiet then Printf.ifprintf stdout fmt else Printf.printf fmt

let compare_rows ~quiet v ~name ~key base fresh =
  List.iter
    (fun (metric, dir) ->
      match number metric base with
      | None -> ()  (* baseline doesn't track it for this row *)
      | Some b -> (
          match number metric fresh with
          | None -> (
              v.failures <- v.failures + 1;
              say ~quiet "FAIL %s [%s] %s: in baseline (%g) but missing fresh\n" name key
                metric b)
          | Some f -> (
              v.checked <- v.checked + 1;
              match dir with
              | Exact ->
                  if f <> b then begin
                    v.failures <- v.failures + 1;
                    say ~quiet "FAIL %s [%s] %s: expected %g, got %g\n" name key metric b f
                  end
              | Lower tol ->
                  if f > b *. (1. +. tol) then begin
                    v.failures <- v.failures + 1;
                    say ~quiet "FAIL %s [%s] %s: %g -> %g (+%.1f%%, tolerance %.0f%%)\n" name
                      key metric b f
                      ((f /. b -. 1.) *. 100.)
                      (tol *. 100.)
                  end
                  else if b > 0. && f < b *. (1. -. tol) then begin
                    v.improvements <- v.improvements + 1;
                    say ~quiet "note %s [%s] %s: %g -> %g (improved; consider refreshing the \
                              baseline)\n"
                      name key metric b f
                  end)))
    tracked

let compare_files ?(quiet = false) v ~name base_rows fresh_rows =
  let fresh_tbl = Hashtbl.create 16 in
  List.iter (fun kv -> Hashtbl.replace fresh_tbl (row_key kv) kv) fresh_rows;
  List.iter
    (fun base ->
      let key = row_key base in
      match Hashtbl.find_opt fresh_tbl key with
      | None ->
          v.failures <- v.failures + 1;
          say ~quiet "FAIL %s: baseline row [%s] missing from fresh run\n" name key
      | Some fresh ->
          Hashtbl.remove fresh_tbl key;
          compare_rows ~quiet v ~name ~key base fresh)
    base_rows;
  Hashtbl.iter (fun key _ -> say ~quiet "note %s: new row [%s] (no baseline)\n" name key) fresh_tbl

(* --- selftest --- *)

(* A tracked metric's value moved just past its band: a Lower one by
   twice its tolerance (or from zero or below by one), an Exact one by
   one, Int or Float alike.  [None] for a value that is not a number. *)
let perturb dir v =
  match (dir, v) with
  | Lower tol, Json.Int i when i > 0 ->
      Some (Json.Int (int_of_float (ceil (float_of_int i *. (1. +. (2. *. tol))))))
  | Lower tol, Json.Float f when f > 0. -> Some (Json.Float (f *. (1. +. (2. *. tol))))
  | (Lower _ | Exact), Json.Int i -> Some (Json.Int (i + 1))
  | (Lower _ | Exact), Json.Float f -> Some (Json.Float (f +. 1.))
  | _ -> None

(* One copy of the row per tracked metric it holds, with that metric
   perturbed and every other field as it was. *)
let perturbations kv =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k tracked with
      | None -> None
      | Some dir ->
          Option.map
            (fun v' -> (k, List.map (fun (k', x) -> if k' = k then (k', v') else (k', x)) kv))
            (perturb dir v))
    kv

(* The file must pass against itself verbatim, and each copy with one
   tracked metric perturbed must trip the gate: every metric of every
   row, so a metric the comparison skipped would show. *)
let selftest ~name base_rows =
  (* identical rows must pass... *)
  let v = { failures = 0; improvements = 0; checked = 0 } in
  compare_files v ~name base_rows base_rows;
  if v.failures > 0 then fail "selftest %s: clean comparison failed" name;
  if v.checked = 0 then fail "selftest %s: no tracked metrics found" name;
  (* ...and each perturbed copy must trip the gate. *)
  let injections = List.concat_map perturbations base_rows in
  List.iter
    (fun (metric, bad) ->
      let v = { failures = 0; improvements = 0; checked = 0 } in
      compare_files ~quiet:true v ~name
        (List.filter (fun b -> row_key b = row_key bad) base_rows)
        [ bad ];
      if v.failures = 0 then
        fail "selftest %s: injected regression in %s of [%s] not caught" name metric
          (row_key bad))
    injections;
  let per_metric =
    List.filter_map
      (fun (metric, _) ->
        match List.length (List.filter (fun (m, _) -> m = metric) injections) with
        | 0 -> None
        | n -> Some (Printf.sprintf "%s %d" metric n))
      tracked
  in
  Printf.printf "%s: selftest ok (%d rows, %d injections trip the gate: %s)\n" name
    (List.length base_rows) (List.length injections) (String.concat ", " per_metric)

(* --- driver --- *)

let () =
  let baselines = ref None and fresh_dir = ref "." and self = ref false and names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--baselines" :: d :: rest -> baselines := Some d; parse rest
    | "--fresh" :: d :: rest -> fresh_dir := d; parse rest
    | "--selftest" :: rest -> self := true; parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> fail "unknown option %s" a
    | a :: rest -> names := a :: !names; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names = List.rev !names in
  let baselines =
    match !baselines with
    | Some d -> d
    | None -> fail "usage: check_regress --baselines DIR [--fresh DIR] [--selftest] NAME..."
  in
  if names = [] then fail "check_regress: no result files named";
  if !self then
    List.iter (fun name -> selftest ~name (rows_of_file (Filename.concat baselines name))) names
  else begin
    let v = { failures = 0; improvements = 0; checked = 0 } in
    List.iter
      (fun name ->
        let base_rows = rows_of_file (Filename.concat baselines name) in
        let fresh_rows = rows_of_file (Filename.concat !fresh_dir name) in
        compare_files v ~name base_rows fresh_rows)
      names;
    Printf.printf "checked %d metric(s): %d regression(s), %d improvement(s)\n" v.checked
      v.failures v.improvements;
    if v.failures > 0 then exit 1
  end
