(* The mmap smoke matrix (`dune build @mmap-smoke`): the backend
   equivalence matrix plus the allocation-free-descent proof,
   standalone so CI can run it without the full suite.

     - backend matrix: one committed file per size, opened under the
       mmap and pread backends; sequential queries, executor batches
       (jobs 1, 2 and 4) and a snapshot pinned across five commits
       must all return byte-identical results under both backends and
       equal the brute-force oracle, with the mapped handle actually
       serving windows (not silently falling back to pread);
     - zero allocation: on the mmap backend, after one warm-up query
       has sized the reusable descent stack and hit buffer, a
       miss-only window query performs no minor allocation at all —
       [Gc.minor_words] across 1000 queries must not move, live and at
       a pinned generation (where each mapped page is bracketed by two
       version-store probes, lock-free while nothing is retained).
       This is the property that makes the mapped read path
       mechanically different from pread: no syscall, no lock, no copy,
       no decode, and no garbage;
     - descending windows: the miss window is rejected at the root,
       so it proves a single node visit.  1000 windows of 1e-8 to 1e-2
       of the area over 83.5k TIGER-like rectangles descend the whole
       tree (several internal nodes and up to a few hundred leaves
       each).  Hits are recorded unboxed, so these descents too must
       allocate nothing — an engine that allocates per visited node or
       per hit fails — and reading the hits back as entries costs at
       most 16 minor words each (the entry, its rectangle and four
       boxed floats).

   Exits non-zero on any violation, printing one line per offence. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Dynamic = Prt_rtree.Dynamic
module Index_file = Prt_rtree.Index_file
module Qexec = Prt_rtree.Qexec
module Mmap_pager = Prt_storage.Mmap_pager
module Prtree = Prt_prtree.Prtree
module Tiger = Prt_workloads.Tiger
module Queries = Prt_workloads.Queries

let violations = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr violations;
      Printf.printf "VIOLATION: %s\n%!" s)
    fmt

let page_size = 512
let everything = Rect.make ~xmin:(-1e9) ~ymin:(-1e9) ~xmax:1e9 ~ymax:1e9

let random_rect rng =
  let x0 = Rng.float rng 1.0 and y0 = Rng.float rng 1.0 in
  let w = Rng.float rng 0.2 and h = Rng.float rng 0.2 in
  Rect.make ~xmin:x0 ~ymin:y0 ~xmax:(Float.min 1.0 (x0 +. w)) ~ymax:(Float.min 1.0 (y0 +. h))

let make_entries ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i -> Entry.make (random_rect rng) i)

let ids_of entries = List.map Entry.id entries |> List.sort Int.compare

let brute_force entries window =
  Array.to_list entries
  |> List.filter (fun e -> Rect.intersects (Entry.rect e) window)
  |> List.map Entry.id
  |> List.sort Int.compare

let with_temp f =
  let path = Filename.temp_file "prt_mmap_smoke" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let create_index ?backend path entries =
  Index_file.create ~page_size ?backend path ~build:(fun pool -> Prtree.load pool entries)

let backend_name : Index_file.backend -> string = function
  | `Mmap -> "mmap"
  | `Pread -> "pread"
  | `Auto -> "auto"

(* --- backend equivalence matrix --- *)

let windows rng =
  Array.init 8 (fun i -> if i = 0 then everything else random_rect rng)

let run_backend ~entries ~queries backend =
  with_temp @@ fun path ->
  let idx = create_index ~backend path entries in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  if Index_file.read_backend idx <> backend_name backend then
    fail "backend %s did not activate" (backend_name backend);
  let tree = Index_file.tree idx in
  let sequential =
    Array.map (fun w -> ids_of (fst (Rtree.query_list tree w))) queries
  in
  let batches =
    List.map
      (fun jobs ->
        let exec = Index_file.executor idx in
        Array.map (fun (r, _) -> ids_of r) (Qexec.run ~jobs exec queries))
      [ 1; 2; 4 ]
  in
  (* Pin, commit five inserts, then read both the pinned and the live
     tree: the snapshot must still answer with the pre-commit oracle. *)
  let s = Index_file.snapshot idx in
  for j = 0 to 4 do
    let x = 0.1 +. (0.08 *. float_of_int j) in
    let e =
      Entry.make
        (Rect.make ~xmin:x ~ymin:x ~xmax:(x +. 0.01) ~ymax:(x +. 0.01))
        (1_000_000 + j)
    in
    Index_file.update idx (fun tree -> Dynamic.insert tree e)
  done;
  let sv = Index_file.snapshot_view s in
  let pinned = ids_of (fst (Rtree.query_list ~snapshot:sv tree everything)) in
  let live = ids_of (fst (Rtree.query_list tree everything)) in
  Index_file.release_snapshot s;
  (match backend with
  | `Pread | `Auto -> ()
  | `Mmap -> (
      match Index_file.mmap_counters idx with
      | None -> fail "mmap backend has no counters"
      | Some c ->
          if Array.length entries > 0 && c.Mmap_pager.c_windows_served = 0 then
            fail "mmap backend served no mapped windows (n=%d)"
              (Array.length entries)));
  (sequential, batches, pinned, live)

let backend_matrix () =
  List.iter
    (fun (n, seed) ->
      let entries = make_entries ~n ~seed in
      let rng = Rng.create (seed + 1) in
      let queries = windows rng in
      let oracle = Array.map (brute_force entries) queries in
      let sm, bm, pm, lm = run_backend ~entries ~queries `Mmap in
      let sp, bp, pp, lp = run_backend ~entries ~queries `Pread in
      Array.iteri
        (fun i o ->
          if sm.(i) <> o then fail "n=%d window %d: mmap <> oracle" n i;
          if sp.(i) <> o then fail "n=%d window %d: pread <> oracle" n i)
        oracle;
      List.iteri
        (fun bi batch ->
          Array.iteri
            (fun i o ->
              if batch.(i) <> o then
                fail "n=%d batch %d window %d: mmap executor <> oracle" n bi i)
            oracle)
        bm;
      List.iteri
        (fun bi batch ->
          Array.iteri
            (fun i o ->
              if batch.(i) <> o then
                fail "n=%d batch %d window %d: pread executor <> oracle" n bi i)
            oracle)
        bp;
      let pre = brute_force entries everything in
      if pm <> pre then fail "n=%d: mmap pinned read is not the pinned tree" n;
      if pp <> pre then fail "n=%d: pread pinned read is not the pinned tree" n;
      if lm <> lp then fail "n=%d: live reads disagree across backends" n;
      Printf.printf "matrix n=%-5d ok (8 windows x {seq, jobs 1/2/4, snapshot})\n%!" n)
    [ (1, 11); (39, 12); (400, 13); (2000, 14) ]

(* --- zero allocation on the mapped miss path --- *)

let zero_allocation () =
  with_temp @@ fun path ->
  let entries = make_entries ~n:2000 ~seed:21 in
  let idx = create_index ~backend:`Mmap path entries in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  if Index_file.read_backend idx <> "mmap" then fail "mmap did not activate";
  let tree = Index_file.tree idx in
  let hits = Rtree.hits_make () in
  (* All entries live in the unit square, so this window tests the
     root's rects and matches none: the descent never materializes a
     hit and never leaves the mapping. *)
  let miss = Rect.make ~xmin:1e6 ~ymin:1e6 ~xmax:(1e6 +. 1.0) ~ymax:(1e6 +. 1.0) in
  (* Warm-up: size the reusable stack and hit buffer, verify every
     page's CRC once (the memo allocates on first visit, never
     after). *)
  Rtree.query_into tree everything ~into:hits;
  let expected = Array.length entries in
  if Rtree.hits_length hits <> expected then
    fail "warm-up query returned %d of %d" (Rtree.hits_length hits) expected;
  Rtree.query_into tree miss ~into:hits;
  if Rtree.hits_length hits <> 0 then
    fail "miss window matched %d entries" (Rtree.hits_length hits);
  let rounds = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Rtree.query_into tree miss ~into:hits
  done;
  let w1 = Gc.minor_words () in
  let per_query = (w1 -. w0) /. float_of_int rounds in
  if w1 -. w0 <> 0.0 then
    fail "mapped miss descent allocates %.1f minor words per query" per_query;
  if Rtree.hits_length hits <> 0 then
    fail "miss loop matched %d entries" (Rtree.hits_length hits);
  (match Index_file.mmap_counters idx with
  | None -> fail "mmap counters vanished"
  | Some c ->
      if c.Mmap_pager.c_fallbacks > 0 then
        fail "miss loop fell back to pread %d times" c.Mmap_pager.c_fallbacks);
  Printf.printf "zero-alloc: %d miss queries, %.0f minor words total\n%!" rounds
    (w1 -. w0);
  (* The same miss at a pinned generation, the path every executor
     batch and LSM query takes.  Each mapped page is bracketed by two
     version-store probes; with no version retained they answer without
     the MVCC lock and allocate nothing.  The snapshot option is built
     once, outside the loop: the call's own [Some] is the caller's. *)
  let live_versions () =
    (Prt_storage.Pager.mvcc_stats (Index_file.pager idx)).Prt_storage.Pager.live_versions
  in
  Index_file.with_snapshot idx @@ fun view ->
  let snapshot = Some view in
  Rtree.query_into ?snapshot tree miss ~into:hits;
  if live_versions () <> 0 then fail "pinned miss: %d versions retained" (live_versions ());
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Rtree.query_into ?snapshot tree miss ~into:hits
  done;
  Gc.minor ();
  let words = Gc.minor_words () -. w0 in
  if words <> 0.0 then
    fail "pinned mapped miss descent allocates %.1f minor words per query"
      (words /. float_of_int rounds);
  if Rtree.hits_length hits <> 0 then
    fail "pinned miss loop matched %d entries" (Rtree.hits_length hits);
  (match Index_file.mmap_counters idx with
  | Some c when c.Mmap_pager.c_fallbacks > 0 ->
      fail "pinned miss loop fell back to pread %d times" c.Mmap_pager.c_fallbacks
  | _ -> ());
  Printf.printf "zero-alloc: %d pinned miss queries, %.0f minor words total\n%!" rounds words

(* --- allocation on descending windows --- *)

let descending_windows () =
  with_temp @@ fun path ->
  let entries = Tiger.eastern ~scale:0.5 ~seed:31 in
  let idx =
    Index_file.create ~page_size:4096 ~backend:`Mmap path ~build:(fun pool ->
        Prtree.load pool entries)
  in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  if Index_file.read_backend idx <> "mmap" then fail "mmap did not activate";
  let tree = Index_file.tree idx in
  let world = Queries.world_of entries in
  let windows =
    Array.concat
      (List.init 7 (fun k ->
           Queries.squares ~count:143 ~area_fraction:(10.0 ** float_of_int (k - 8)) ~world
             ~seed:(40 + k)))
  in
  let windows = Array.sub windows 0 1000 in
  let n = Array.length windows in
  let hits = Rtree.hits_make () in
  (* Warm-up: the whole-world query sizes the hit buffer for any answer
     and verifies every page's CRC once. *)
  Rtree.query_into tree everything ~into:hits;
  Array.iter (fun w -> Rtree.query_into tree w ~into:hits) windows;
  (* Per-query figures land in preallocated arrays: the loop itself
     must allocate nothing. *)
  let found = Array.make n 0 and leaves = Array.make n 0 and internal = Array.make n 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Rtree.query_into tree (Array.unsafe_get windows i) ~into:hits;
    let s = Rtree.hits_stats hits in
    found.(i) <- Rtree.hits_length hits;
    leaves.(i) <- s.Rtree.leaf_visited;
    internal.(i) <- s.Rtree.internal_visited
  done;
  let descent_words = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Rtree.query_into tree (Array.unsafe_get windows i) ~into:hits;
    for j = 0 to Rtree.hits_length hits - 1 do
      ignore (Rtree.hits_get hits j)
    done
  done;
  let read_words = Gc.minor_words () -. w0 in
  let total_hits = Array.fold_left ( + ) 0 found in
  let per_hit = read_words /. float_of_int (max 1 total_hits) in
  if descent_words <> 0.0 then
    fail "descending windows allocate %.0f minor words in the descent" descent_words;
  if read_words > 16.0 *. float_of_int total_hits then
    fail "reading hits back allocates %.1f minor words per hit (limit 16)" per_hit;
  (match Index_file.mmap_counters idx with
  | Some c when c.Mmap_pager.c_fallbacks > 0 ->
      fail "descending windows fell back to pread %d times" c.Mmap_pager.c_fallbacks
  | _ -> ());
  let range a = (Array.fold_left min max_int a, Array.fold_left max 0 a) in
  let lmin, lmax = range leaves and imin, imax = range internal in
  Printf.printf
    "descending: %d windows, %d hits, leaves %d-%d, internal %d-%d: %.0f minor words in the \
     descents, %.2f per hit read back\n%!"
    n total_hits lmin lmax imin imax descent_words per_hit

let () =
  backend_matrix ();
  zero_allocation ();
  descending_windows ();
  if !violations > 0 then begin
    Printf.printf "mmap smoke: %d violation(s)\n%!" !violations;
    exit 1
  end;
  Printf.printf "mmap smoke: all checks passed\n%!"
