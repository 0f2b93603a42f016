(* Shared helpers for the test suite: small-page pools (deep trees from
   few entries), faulty pools over a seeded fault schedule, brute-force
   query oracles, random dataset generators driven by the repository's
   deterministic RNG, and qcheck registration. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Failpoint = Prt_storage.Failpoint
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Audit = Prt_rtree.Audit

(* 512-byte pages -> capacity (512-16-3)/36 = 13 (16 bytes go to the
   page integrity trailer): multi-level trees appear at a few dozen
   entries already. *)
let small_page_size = 512

let small_pool () = Buffer_pool.create ~capacity:4096 (Pager.create_memory ~page_size:small_page_size ())

let default_pool () = Buffer_pool.create ~capacity:4096 (Pager.create_memory ())

(* Removes a flat directory: an Lsm store's WAL segments, manifests and
   component files. *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    if Sys.is_directory dir then begin
      Array.iter
        (fun n ->
          try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
    else try Sys.remove dir with Sys_error _ -> ()
  end

(* A fresh directory for an on-disk store, removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "prt_store" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The expensive qcheck runs only fire under `dune build @runtest-long`
   (which sets QCHECK_LONG); plain `dune runtest` stays fast. *)
let long_run = Sys.getenv_opt "QCHECK_LONG" <> None

let qcheck_case ?(long = false) test =
  ignore long;
  QCheck_alcotest.to_alcotest test

(* Restamp the stamped pages of the file at [path] (only the page ids
   in [only], when given) with format [epoch] and a valid CRC, as a
   build of that on-disk format would have left them. *)
let restamp_epoch ~page_size ?only path ~epoch =
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  for id = 0 to (Bytes.length data / page_size) - 1 do
    let p = Bytes.sub data (id * page_size) page_size in
    if Option.fold ~none:true ~some:(List.mem id) only && Bytes.get_uint16_le p (page_size - 8) <> 0
    then begin
      Bytes.set_uint16_le p (page_size - 8) epoch;
      let crc = Prt_storage.Page.crc32c p ~pos:0 ~len:(page_size - 4) in
      Bytes.set_int32_le p (page_size - 4) (Int32.of_int crc);
      Bytes.blit p 0 data (id * page_size) page_size
    end
  done;
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

(* --- fault injection --- *)

(* Seeded fault schedule shared by the fault suites: every operation
   class faults with probability [rate], never more than
   [max_consecutive] times in a row, on a deterministic schedule derived
   from [seed]. *)
let fault_schedule ?(max_consecutive = 3) ~seed ~rate () =
  Failpoint.create (Failpoint.uniform ~seed ~max_consecutive rate)

(* A small-page in-memory pool whose pager injects faults per the given
   schedule; the pool's retry policy (attempts > max_consecutive) is
   what absorbs them.  Returns the failpoint too so tests can assert on
   the injected counters. *)
let faulty_pool ?(page_size = small_page_size) ?(capacity = 4096)
    ?(retry = Buffer_pool.default_retry) ~seed ~rate () =
  let fp = fault_schedule ~seed ~rate () in
  let pager = Pager.wrap_faulty (Pager.create_memory ~page_size ()) fp in
  (Buffer_pool.create ~capacity ~retry pager, fp)

(* Deterministic random rectangles in the unit square. *)
let random_rect rng =
  let x0 = Rng.float rng 1.0 and y0 = Rng.float rng 1.0 in
  let w = Rng.float rng 0.2 and h = Rng.float rng 0.2 in
  Rect.make ~xmin:x0 ~ymin:y0 ~xmax:(Float.min 1.0 (x0 +. w)) ~ymax:(Float.min 1.0 (y0 +. h))

let random_entries ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i -> Entry.make (random_rect rng) i)

let random_queries ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> random_rect rng)

(* Brute-force oracle: sorted ids of entries intersecting the window. *)
let brute_force entries window =
  Array.to_list entries
  |> List.filter (fun e -> Rect.intersects (Entry.rect e) window)
  |> List.map Entry.id
  |> List.sort Int.compare

let ids_of result = List.sort Int.compare (List.map Entry.id result)

let check_query_matches_brute_force tree entries window =
  let result, _ = Rtree.query_list tree window in
  Alcotest.(check (list int)) "query result matches brute force" (brute_force entries window)
    (ids_of result)

(* Run a batch of random queries against a tree and its oracle. *)
let check_tree_queries ?(nqueries = 40) ~seed tree entries =
  let queries = random_queries ~n:nqueries ~seed in
  Array.iter (fun q -> check_query_matches_brute_force tree entries q) queries

let check_structure tree =
  match Audit.validate tree with
  | report -> report
  | exception Audit.Invalid v -> Alcotest.failf "invalid tree: %a" Audit.pp_violation v

(* The shared oracle for differential suites: every named implementation
   must agree with the brute force on a batch of random windows. *)
type impl = { impl_name : string; impl_query : Rect.t -> int list }

let rtree_impl impl_name tree =
  { impl_name; impl_query = (fun q -> ids_of (fst (Rtree.query_list tree q))) }

let check_impls_agree ?(nqueries = 25) ~seed impls entries =
  let rng = Rng.create seed in
  for _ = 1 to nqueries do
    let q = random_rect rng in
    let expected = brute_force entries q in
    List.iter
      (fun impl ->
        Alcotest.(check (list int))
          (impl.impl_name ^ " agrees with oracle")
          expected (impl.impl_query q))
      impls
  done

(* Audit wrapper mirroring [check_structure]. *)
let check_audit ?check_leaks ?reachable tree =
  let report = Audit.check ?check_leaks ?reachable tree in
  if not (Audit.ok report) then Alcotest.failf "audit failed: %a" Audit.pp_report report;
  report

(* The same for a pseudo-tree's violation list. *)
let check_no_violations violations =
  if violations <> [] then
    Alcotest.failf "audit failed: %a" (Fmt.list ~sep:Fmt.cut Audit.pp_violation) violations

(* --- seeded scenarios: every qcheck failure prints a one-line repro ---

   A [scenario] is the (seed, size) pair a property derives all of its
   randomness from.  The printer emits a `PRT_QCHECK_SEED=...` repro
   line; setting that variable forces every generated scenario onto the
   failing seed, so the case replays deterministically under plain
   `dune runtest`.  Shrinking reduces only [size] (the seed is held
   fixed), keeping shrunk counterexamples reproducible by that same
   line. *)

type scenario = { sc_seed : int; sc_size : int }

let forced_seed = Option.bind (Sys.getenv_opt "PRT_QCHECK_SEED") int_of_string_opt

let scenario_repro sc =
  Printf.sprintf "seed=%d size=%d (repro: PRT_QCHECK_SEED=%d dune runtest)" sc.sc_seed sc.sc_size
    sc.sc_seed

let gen_seed =
  match forced_seed with
  | Some s -> QCheck.Gen.return s
  | None -> QCheck.Gen.int_range 0 1_000_000

let arbitrary_scenario ?(min_size = 0) ~max_size () =
  QCheck.make ~print:scenario_repro
    ~shrink:(fun sc yield ->
      QCheck.Shrink.int sc.sc_size (fun s -> if s >= min_size then yield { sc with sc_size = s }))
    QCheck.Gen.(
      int_range min_size max_size >>= fun size ->
      gen_seed >>= fun seed -> return { sc_seed = seed; sc_size = size })

(* QCheck generator for an entry array of the given max size (the seed
   honours PRT_QCHECK_SEED like every scenario). *)
let arbitrary_entries max_n =
  QCheck.make
    ~print:(fun arr -> Printf.sprintf "<%d entries>" (Array.length arr))
    QCheck.Gen.(
      int_range 0 max_n >>= fun n ->
      gen_seed >>= fun seed -> return (random_entries ~n ~seed))
