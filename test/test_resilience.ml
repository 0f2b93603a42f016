(* The online-resilience layer end to end: graceful degradation of
   queries over damaged devices (results always a labelled subset of the
   truth), cooperative deadlines over the virtual clock, the shared
   retry engine's circuit breaker, admission control on the batched
   executor, and the quarantine -> scrub -> heal lifecycle on a
   shadowed index file. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Page = Prt_storage.Page
module Buffer_pool = Prt_storage.Buffer_pool
module Failpoint = Prt_storage.Failpoint
module Retry = Prt_storage.Retry
module Quarantine = Prt_storage.Quarantine
module Scrub = Prt_storage.Scrub
module Deadline = Prt_util.Deadline
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree

let unit_square = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0

(* Build a tree on a clean in-memory pager, then view the same device
   through a fault-injecting wrapper and a single-attempt pool: every
   injected fault surfaces to the resilient query path instead of being
   absorbed by retries. *)
let degraded_view ~seed ~rate ~n =
  let entries = Helpers.random_entries ~n ~seed in
  let base = Pager.create_memory ~page_size:Helpers.small_page_size () in
  let build_pool = Buffer_pool.create ~capacity:4096 base in
  let tree = Prtree.load build_pool entries in
  Buffer_pool.flush build_pool;
  let faulty = Pager.wrap_faulty base (Helpers.fault_schedule ~seed:(seed + 1) ~rate ()) in
  let qpool =
    Buffer_pool.create ~capacity:4096 ~retry:{ Buffer_pool.attempts = 1; backoff_base = 1 } faulty
  in
  let qtree =
    Rtree.of_root ~pool:qpool ~root:(Rtree.root tree) ~height:(Rtree.height tree)
      ~count:(Rtree.count tree)
  in
  (entries, qtree)

(* --- graceful degradation: subset of the oracle, partiality labelled --- *)

let test_degraded_subset_qcheck =
  QCheck.Test.make ~count:60 ~name:"degraded query: labelled subset of oracle"
    (Helpers.arbitrary_scenario ~min_size:20 ~max_size:150 ())
    (fun sc ->
      let n = sc.Helpers.sc_size and seed = sc.Helpers.sc_seed in
      let entries, qtree = degraded_view ~seed ~rate:0.3 ~n in
      let quarantine = Quarantine.create () in
      let queries = Helpers.random_queries ~n:15 ~seed:(seed + 1000) in
      Array.for_all
        (fun w ->
          let hits, stats = Rtree.query_list ~quarantine qtree w in
          let ids = Helpers.ids_of hits in
          let oracle = Helpers.brute_force entries w in
          let subset = List.for_all (fun id -> List.mem id oracle) ids in
          match Rtree.completeness stats with
          | Rtree.Complete -> subset && ids = oracle
          | Rtree.Partial { skipped_pages; skipped_subtrees } ->
              subset && skipped_pages <> [] && skipped_subtrees > 0
          | Rtree.Timed_out _ -> false (* no deadline was set *))
        queries)

let test_quarantined_pages_skipped () =
  let entries, qtree = degraded_view ~seed:7 ~rate:0.4 ~n:120 in
  let quarantine = Quarantine.create () in
  let _ = Rtree.query_list ~quarantine qtree unit_square in
  let poisoned = Quarantine.count quarantine in
  if poisoned > 0 then begin
    (* A second pass must route around the registry without touching the
       device for those ids — and stay a subset of the truth. *)
    let hits, stats = Rtree.query_list ~quarantine qtree unit_square in
    let oracle = Helpers.brute_force entries unit_square in
    List.iter
      (fun id -> Alcotest.(check bool) "subset" true (List.mem id oracle))
      (Helpers.ids_of hits);
    Alcotest.(check bool) "partiality labelled" false (Rtree.complete stats)
  end

let test_fail_stop_without_quarantine () =
  (* The historical contract is untouched: no quarantine, no deadline —
     device damage raises. *)
  let _, qtree = degraded_view ~seed:3 ~rate:0.9 ~n:150 in
  match Rtree.query_count qtree unit_square with
  | _ -> Alcotest.fail "expected Io_error from the fail-stop path"
  | exception Pager.Io_error _ -> ()

(* --- deadlines: virtual clock, slow I/O, monotone coverage --- *)

let with_virtual_clock f =
  Deadline.install_virtual ~at:0.0 ();
  Fun.protect ~finally:Deadline.uninstall_virtual f

let test_deadline_basics () =
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Alcotest.check_raises "negative budget" (Invalid_argument "Deadline.after_ms: negative budget")
    (fun () -> ignore (Deadline.after_ms (-1.0)));
  with_virtual_clock (fun () ->
      let d = Deadline.after_ms 10.0 in
      Alcotest.(check bool) "not yet" false (Deadline.expired d);
      Deadline.advance_ms 5.0;
      Alcotest.(check bool) "still not" false (Deadline.expired d);
      Deadline.advance_ms 6.0;
      Alcotest.(check bool) "expired" true (Deadline.expired d))

let test_slow_io_consumes_budget () =
  (* Failpoint read delays advance the virtual clock, so simulated slow
     I/O really eats the deadline. *)
  with_virtual_clock (fun () ->
      let pager =
        Pager.wrap_faulty
          (Pager.create_memory ~page_size:Helpers.small_page_size ())
          (Failpoint.create (Failpoint.slow ~read_ms:2.5 ()))
      in
      let id = Pager.alloc pager in
      Pager.write pager id (Page.create Helpers.small_page_size);
      let before = Deadline.remaining_ms (Deadline.after_ms 100.0) in
      ignore (Pager.read pager id);
      let after = Deadline.remaining_ms (Deadline.after_ms 100.0) in
      ignore (before, after);
      let d = Deadline.after_ms 2.0 in
      ignore (Pager.read pager id);
      Alcotest.(check bool) "2.5ms read expired a 2ms budget" true (Deadline.expired d))

let test_deadline_monotone_coverage () =
  let entries = Helpers.random_entries ~n:200 ~seed:11 in
  let base = Pager.create_memory ~page_size:Helpers.small_page_size () in
  let build_pool = Buffer_pool.create ~capacity:4096 base in
  let tree = Prtree.load build_pool entries in
  Buffer_pool.flush build_pool;
  let slow = Pager.wrap_faulty base (Failpoint.create (Failpoint.slow ~read_ms:1.0 ())) in
  let oracle = Helpers.brute_force entries unit_square in
  let run budget_ms =
    (* Fresh pool per run: every page read costs 1 virtual ms. *)
    let qpool = Buffer_pool.create ~capacity:4096 slow in
    let qtree =
      Rtree.of_root ~pool:qpool ~root:(Rtree.root tree) ~height:(Rtree.height tree)
        ~count:(Rtree.count tree)
    in
    with_virtual_clock (fun () ->
        let hits, stats = Rtree.query_list ~deadline:(Deadline.after_ms budget_ms) qtree unit_square in
        (Helpers.ids_of hits, stats))
  in
  let budgets = [ 0.5; 3.0; 12.0; 1000.0 ] in
  let results = List.map run budgets in
  (* Coverage is monotone in the budget, every cutoff is labelled, and
     the full budget returns exactly the oracle. *)
  let rec pairs = function
    | (ids1, _) :: ((ids2, _) :: _ as rest) ->
        Alcotest.(check bool) "monotone subset" true
          (List.for_all (fun id -> List.mem id ids2) ids1);
        pairs rest
    | _ -> ()
  in
  pairs results;
  List.iter
    (fun (ids, stats) ->
      if Rtree.complete stats then Alcotest.(check (list int)) "complete = oracle" oracle ids
      else
        match Rtree.completeness stats with
        | Rtree.Timed_out _ -> ()
        | c -> Alcotest.failf "expected Timed_out, got %a" Rtree.pp_completeness c)
    results;
  let last_ids, last_stats = List.nth results (List.length budgets - 1) in
  Alcotest.(check bool) "generous budget completes" true (Rtree.complete last_stats);
  Alcotest.(check (list int)) "oracle" oracle last_ids;
  let first_ids, first_stats = List.hd results in
  Alcotest.(check bool) "starved budget times out" false (Rtree.complete first_stats);
  Alcotest.(check bool) "starved < full" true (List.length first_ids < List.length last_ids)

(* --- the retry engine's circuit breaker --- *)

let breaker_policy =
  { Retry.default_policy with attempts = 1; jitter = 0.0; breaker_threshold = 3; breaker_cooldown = 2 }

let failing_op calls () =
  incr calls;
  raise (Pager.Io_error "down")

let test_breaker_trips_and_recovers () =
  let eng = Retry.create ~policy:breaker_policy () in
  let calls = ref 0 in
  let attempt f = match Retry.run eng ~op:"t" f with _ -> () | exception Pager.Io_error _ -> () in
  Alcotest.(check bool) "starts closed" true (Retry.breaker_state eng = `Closed);
  (* Three consecutive exhausted operations trip it. *)
  for _ = 1 to 3 do attempt (failing_op calls) done;
  Alcotest.(check bool) "open after threshold" true (Retry.breaker_state eng = `Open);
  Alcotest.(check int) "one trip" 1 (Retry.stats eng).Retry.trips;
  (* While open it fails fast: the operation body never runs. *)
  let before = !calls in
  attempt (failing_op calls);
  attempt (failing_op calls);
  Alcotest.(check int) "rejected without executing" before !calls;
  Alcotest.(check int) "rejections counted" 2 (Retry.stats eng).Retry.rejected;
  (* Cooldown served: the next call is a half-open probe; success closes. *)
  (match Retry.run eng ~op:"t" (fun () -> 42) with
  | v -> Alcotest.(check int) "probe result" 42 v
  | exception Pager.Io_error _ -> Alcotest.fail "probe should have run");
  Alcotest.(check bool) "closed after good probe" true (Retry.breaker_state eng = `Closed)

let test_breaker_failed_probe_reopens () =
  let eng = Retry.create ~policy:breaker_policy () in
  let calls = ref 0 in
  let attempt f = match Retry.run eng ~op:"t" f with _ -> () | exception Pager.Io_error _ -> () in
  for _ = 1 to 3 do attempt (failing_op calls) done;
  attempt (failing_op calls);
  attempt (failing_op calls);
  (* cooldown spent *)
  attempt (failing_op calls);
  (* the probe — it fails *)
  Alcotest.(check bool) "reopened" true (Retry.breaker_state eng = `Open);
  Alcotest.(check int) "second trip" 2 (Retry.stats eng).Retry.trips

let test_corrupt_page_never_retried () =
  let eng = Retry.create ~policy:{ Retry.default_policy with attempts = 5 } () in
  let calls = ref 0 in
  (match
     Retry.run eng ~op:"t" (fun () ->
         incr calls;
         raise (Pager.Corrupt_page "platter"))
   with
  | _ -> Alcotest.fail "Corrupt_page must propagate"
  | exception Pager.Corrupt_page _ -> ());
  Alcotest.(check int) "exactly one attempt" 1 !calls;
  Alcotest.(check int) "not counted as transient fault" 0 (Retry.stats eng).Retry.faults;
  Alcotest.(check bool) "breaker untouched" true (Retry.breaker_state eng = `Closed)

let test_default_policy_breaker_disabled () =
  let eng = Retry.create () in
  let attempt () =
    match Retry.run eng ~op:"t" (fun () -> raise (Pager.Io_error "x")) with
    | _ -> ()
    | exception Pager.Io_error _ -> ()
  in
  for _ = 1 to 50 do attempt () done;
  Alcotest.(check bool) "never trips by default" true (Retry.breaker_state eng = `Closed);
  Alcotest.(check int) "no trips" 0 (Retry.stats eng).Retry.trips

(* --- quarantine registry --- *)

let test_quarantine_registry () =
  let q = Quarantine.create () in
  Quarantine.add q 5 Quarantine.Corrupt;
  Quarantine.add q 5 Quarantine.Io_failed;
  (* idempotent *)
  Alcotest.(check int) "one entry" 1 (Quarantine.count q);
  Alcotest.(check int) "added once" 1 (Quarantine.added_total q);
  Alcotest.(check bool) "mem" true (Quarantine.mem q 5);
  Quarantine.add q 9 Quarantine.Io_failed;
  Quarantine.remove q 5;
  Alcotest.(check bool) "removed" false (Quarantine.mem q 5);
  Alcotest.(check int) "added_total survives removal" 2 (Quarantine.added_total q);
  Quarantine.clear q;
  Alcotest.(check int) "cleared" 0 (Quarantine.count q)

(* [mem] skips the lock while the registry's atomic count reads zero:
   after every add, remove and clear of a random sequence, [mem] must
   agree with [pages] on every id in play and [count] with its length. *)
let qcheck_quarantine_count =
  QCheck.Test.make ~name:"quarantine: mem and count agree with pages after every step" ~count:200
    (Helpers.arbitrary_scenario ~max_size:60 ())
    (fun sc ->
      let rng = Prt_util.Rng.create sc.Helpers.sc_seed in
      let q = Quarantine.create () in
      let agrees () =
        let pages = Quarantine.pages q in
        Quarantine.count q = List.length pages
        && List.for_all (fun id -> Quarantine.mem q id = List.mem id pages) (List.init 8 Fun.id)
      in
      List.for_all
        (fun _ ->
          let id = Prt_util.Rng.int rng 8 in
          (match Prt_util.Rng.int rng 5 with
          | 0 | 1 -> Quarantine.add q id Quarantine.Corrupt
          | 2 -> Quarantine.add q id Quarantine.Io_failed
          | 3 -> Quarantine.remove q id
          | _ -> if Prt_util.Rng.int rng 4 = 0 then Quarantine.clear q);
          agrees ())
        (List.init sc.Helpers.sc_size Fun.id))

(* A page a worker domain quarantines is seen by the next [mem] after
   the join, on the lock-free path's first use too. *)
let test_quarantine_cross_domain () =
  let q = Quarantine.create () in
  Alcotest.(check bool) "empty registry: not a member" false (Quarantine.mem q 3);
  Domain.join (Domain.spawn (fun () -> Quarantine.add q 3 Quarantine.Corrupt));
  Alcotest.(check bool) "added on another domain: seen after the join" true (Quarantine.mem q 3);
  Alcotest.(check bool) "other ids still absent" false (Quarantine.mem q 4);
  Domain.join (Domain.spawn (fun () -> Quarantine.remove q 3));
  Alcotest.(check bool) "removed on another domain: gone after the join" false
    (Quarantine.mem q 3)

(* --- the full lifecycle on a shadowed index file --- *)

let corrupt_page_on_disk path ~page_size id =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd ((id * page_size) + 64) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 16 '\171') 0 16))

let with_temp_index f =
  let path = Filename.temp_file "prt_resilience" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let leaf_pages idx =
  let tree = Index_file.tree idx in
  let height = Rtree.height tree in
  let acc = ref [] in
  Rtree.iter_nodes tree ~f:(fun ~depth ~id _ -> if depth = height then acc := id :: !acc);
  List.rev !acc

let test_corrupt_degrade_scrub_heal () =
  with_temp_index (fun path ->
      let entries = Helpers.random_entries ~n:400 ~seed:21 in
      let oracle = Helpers.brute_force entries unit_square in
      let idx = Index_file.create ~shadow:true path ~build:(fun pool -> Prtree.load pool entries) in
      Alcotest.(check bool) "shadowed" true (Index_file.shadowed idx);
      Alcotest.(check bool) "chain written" true (Index_file.shadow_pages idx <> []);
      let victims =
        match leaf_pages idx with a :: b :: _ -> [ a; b ] | l -> l
      in
      let page_size = Pager.page_size (Index_file.pager idx) in
      Index_file.close idx;
      List.iter (fun id -> corrupt_page_on_disk path ~page_size id) victims;
      (* 1. serve degraded: the damage costs coverage, never a raise. *)
      let idx = Index_file.open_ path in
      Alcotest.(check bool) "sticky shadow" true (Index_file.shadowed idx);
      let q = Index_file.quarantine idx in
      let hits, stats = Rtree.query_list ~quarantine:q (Index_file.tree idx) unit_square in
      Alcotest.(check bool) "degraded is partial" false (Rtree.complete stats);
      List.iter
        (fun id -> Alcotest.(check bool) "degraded subset" true (List.mem id oracle))
        (Helpers.ids_of hits);
      Alcotest.(check int) "victims quarantined" (List.length victims) (Quarantine.count q);
      (* 2. the online scrub heals every victim from the shadow chain. *)
      let healed = ref 0 and wrapped = ref false in
      while not !wrapped do
        let r = Index_file.scrub_online ~pages:16 idx in
        healed := !healed + r.Scrub.on_healed;
        wrapped := r.Scrub.on_wrapped || r.Scrub.on_scanned = 0
      done;
      Alcotest.(check int) "all victims healed" (List.length victims) !healed;
      Alcotest.(check int) "quarantine drained" 0 (Quarantine.count q);
      (* 3. the same query is whole again. *)
      let hits, stats = Rtree.query_list ~quarantine:q (Index_file.tree idx) unit_square in
      Alcotest.(check bool) "complete after heal" true (Rtree.complete stats);
      Alcotest.(check (list int)) "oracle restored" oracle (Helpers.ids_of hits);
      Index_file.close idx;
      (* 4. and the file is clean on disk. *)
      let report = Index_file.fsck path in
      Alcotest.(check bool) "fsck clean after heal" true (Index_file.fsck_clean report))

let test_scrub_without_shadow_quarantines () =
  with_temp_index (fun path ->
      let entries = Helpers.random_entries ~n:300 ~seed:23 in
      let idx = Index_file.create path ~build:(fun pool -> Prtree.load pool entries) in
      Alcotest.(check bool) "not shadowed" false (Index_file.shadowed idx);
      let victim = List.hd (leaf_pages idx) in
      let page_size = Pager.page_size (Index_file.pager idx) in
      Index_file.close idx;
      corrupt_page_on_disk path ~page_size victim;
      let idx = Index_file.open_ path in
      let wrapped = ref false and quarantined = ref 0 and healed = ref 0 in
      while not !wrapped do
        let r = Index_file.scrub_online ~pages:16 idx in
        quarantined := !quarantined + r.Scrub.on_quarantined;
        healed := !healed + r.Scrub.on_healed;
        wrapped := r.Scrub.on_wrapped || r.Scrub.on_scanned = 0
      done;
      (* No repair image: detect and quarantine, do not invent data. *)
      Alcotest.(check int) "quarantined" 1 !quarantined;
      Alcotest.(check int) "nothing healed" 0 !healed;
      Alcotest.(check bool) "registered" true (Quarantine.mem (Index_file.quarantine idx) victim);
      let _, stats =
        Rtree.query_list ~quarantine:(Index_file.quarantine idx) (Index_file.tree idx) unit_square
      in
      Alcotest.(check bool) "queries degrade around it" false (Rtree.complete stats);
      Index_file.close idx)

(* --- the batched executor: poisoned pages and admission control --- *)

let test_qexec_poisoned_batch () =
  with_temp_index (fun path ->
      let entries = Helpers.random_entries ~n:400 ~seed:31 in
      let oracle = Helpers.brute_force entries unit_square in
      let idx = Index_file.create path ~build:(fun pool -> Prtree.load pool entries) in
      let victim = List.hd (leaf_pages idx) in
      let page_size = Pager.page_size (Index_file.pager idx) in
      Index_file.close idx;
      corrupt_page_on_disk path ~page_size victim;
      let idx = Index_file.open_ path in
      let exec = Index_file.executor idx in
      let windows = Array.make 12 unit_square in
      (* A poisoned page degrades its slots; the batch never raises. *)
      let results = Qexec.run ~jobs:3 exec windows in
      Array.iter
        (fun (hits, stats) ->
          Alcotest.(check bool) "slot degraded, not failed" false (Rtree.complete stats);
          List.iter
            (fun id -> Alcotest.(check bool) "slot subset" true (List.mem id oracle))
            (Helpers.ids_of hits))
        results;
      Alcotest.(check bool) "victim in shared quarantine" true
        (Quarantine.mem (Index_file.quarantine idx) victim);
      (* The hit-buffer form degrades the same slots the same way. *)
      let into = Array.init 12 (fun _ -> Rtree.hits_make ()) in
      let same_as_run ?deadline () =
        Qexec.run_into ~jobs:3 ?deadline exec windows ~into;
        Array.iteri
          (fun i (hits, stats) ->
            let h = into.(i) in
            Alcotest.(check bool) "run_into slot = run slot" true
              (List.init (Rtree.hits_length h) (Rtree.hits_get h) = hits
              && Rtree.hits_stats h = stats))
          (Qexec.run ~jobs:3 ?deadline exec windows)
      in
      same_as_run ();
      (* Expired batch deadline: every slot labelled, still no raise. *)
      let results = Qexec.run ~jobs:2 ~deadline:(Deadline.at 0.0) exec windows in
      Array.iter
        (fun (hits, stats) ->
          Alcotest.(check bool) "timed out" true stats.Rtree.timed_out;
          Alcotest.(check (list int)) "no partial garbage" [] (Helpers.ids_of hits))
        results;
      same_as_run ~deadline:(Deadline.at 0.0) ();
      Index_file.close idx)

let test_qexec_admission_control () =
  let pool = Helpers.small_pool () in
  let tree = Prtree.load pool (Helpers.random_entries ~n:100 ~seed:41) in
  let exec = Qexec.create ~max_in_flight:4 tree in
  (match Qexec.run ~jobs:1 exec (Array.make 5 unit_square) with
  | _ -> Alcotest.fail "expected Overloaded"
  | exception Qexec.Overloaded { in_flight; limit } ->
      Alcotest.(check int) "limit reported" 4 limit;
      Alcotest.(check int) "load reported" 0 in_flight);
  (match
     Qexec.run_into ~jobs:1 exec (Array.make 5 unit_square)
       ~into:(Array.init 5 (fun _ -> Rtree.hits_make ()))
   with
  | () -> Alcotest.fail "expected Overloaded from run_into"
  | exception Qexec.Overloaded { limit; _ } -> Alcotest.(check int) "run_into: limit reported" 4 limit);
  (* The rejected batch released its slots: an admissible batch runs,
     repeatedly. *)
  for _ = 1 to 3 do
    let results = Qexec.run ~jobs:1 exec (Array.make 4 unit_square) in
    Alcotest.(check int) "batch ran" 4 (Array.length results)
  done;
  Alcotest.check_raises "max_in_flight < 1 rejected"
    (Invalid_argument "Qexec.create: max_in_flight must be >= 1") (fun () ->
      ignore (Qexec.create ~max_in_flight:0 tree))

let suite =
  [
    Alcotest.test_case "quarantined pages are skipped" `Quick test_quarantined_pages_skipped;
    Alcotest.test_case "fail-stop without quarantine" `Quick test_fail_stop_without_quarantine;
    Alcotest.test_case "deadline basics on the virtual clock" `Quick test_deadline_basics;
    Alcotest.test_case "slow I/O consumes deadline budget" `Quick test_slow_io_consumes_budget;
    Alcotest.test_case "deadline coverage is monotone" `Quick test_deadline_monotone_coverage;
    Alcotest.test_case "breaker trips and recovers" `Quick test_breaker_trips_and_recovers;
    Alcotest.test_case "failed probe reopens the breaker" `Quick test_breaker_failed_probe_reopens;
    Alcotest.test_case "Corrupt_page is never retried" `Quick test_corrupt_page_never_retried;
    Alcotest.test_case "default policy never trips" `Quick test_default_policy_breaker_disabled;
    Alcotest.test_case "quarantine registry" `Quick test_quarantine_registry;
    Helpers.qcheck_case qcheck_quarantine_count;
    Alcotest.test_case "quarantine adds cross domains" `Quick test_quarantine_cross_domain;
    Alcotest.test_case "corrupt -> degrade -> scrub -> heal" `Quick test_corrupt_degrade_scrub_heal;
    Alcotest.test_case "scrub without shadow quarantines" `Quick
      test_scrub_without_shadow_quarantines;
    Alcotest.test_case "poisoned page never fails a batch" `Quick test_qexec_poisoned_batch;
    Alcotest.test_case "admission control sheds load" `Quick test_qexec_admission_control;
    Helpers.qcheck_case test_degraded_subset_qcheck;
  ]
