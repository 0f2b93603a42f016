(* The batched multicore query executor and its supporting layers: the
   sharded page cache (generation keying, pruning, eviction, stats), the
   descent engine's page-image kernels, executor-vs-sequential
   equivalence, and the buffer pool's one-miss-per-logical-read
   accounting. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Shard_cache = Prt_storage.Shard_cache
module Failpoint = Prt_storage.Failpoint
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Index_file = Prt_rtree.Index_file
module Dynamic = Prt_rtree.Dynamic
module Prtree = Prt_prtree.Prtree

let with_temp f =
  let path = Filename.temp_file "prt_qexec" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- shard cache --- *)

let test_cache_basics () =
  let c = Shard_cache.create ~shards:4 ~capacity:64 () in
  let decodes = ref 0 in
  let get id = Shard_cache.find_or_add c ~gen:0 id (fun () -> incr decodes; id * 10) in
  Alcotest.(check int) "decoded value" 70 (get 7);
  Alcotest.(check int) "cached value" 70 (get 7);
  Alcotest.(check int) "one decode" 1 !decodes;
  Alcotest.(check (option int)) "find hit" (Some 70) (Shard_cache.find c ~gen:0 7);
  Alcotest.(check (option int)) "find other generation" None (Shard_cache.find c ~gen:1 7);
  let s = Shard_cache.stats c in
  Alcotest.(check int) "hits" 2 s.Shard_cache.st_hits;
  Alcotest.(check int) "misses" 1 s.Shard_cache.st_misses;
  Alcotest.(check int) "entries" 1 s.Shard_cache.st_entries

(* Generations coexist: a snapshot reader pinned to an old generation
   keeps its entries while newer ones land beside them; reclamation is
   explicit via [prune] with the pin floor. *)
let test_cache_generation_coexistence_and_prune () =
  let c = Shard_cache.create ~shards:1 ~capacity:16 () in
  let v1 = Shard_cache.find_or_add c ~gen:1 3 (fun () -> "old") in
  let v2 = Shard_cache.find_or_add c ~gen:2 3 (fun () -> "new") in
  let v3 = Shard_cache.find_or_add c ~gen:2 3 (fun () -> "newer") in
  Alcotest.(check string) "gen 1 decode" "old" v1;
  Alcotest.(check string) "gen 2 decode" "new" v2;
  Alcotest.(check string) "gen 2 cached" "new" v3;
  Alcotest.(check (option string)) "gen 1 still served" (Some "old") (Shard_cache.find c ~gen:1 3);
  Alcotest.(check int) "both generations live" 2 (Shard_cache.stats c).Shard_cache.st_entries;
  (* Pin floor rises to 2: generation-1 entries are reclaimed. *)
  Alcotest.(check int) "pruned" 1 (Shard_cache.prune c ~older_than:2);
  Alcotest.(check (option string)) "gen 1 gone" None (Shard_cache.find c ~gen:1 3);
  Alcotest.(check (option string)) "gen 2 kept" (Some "new") (Shard_cache.find c ~gen:2 3);
  let s = Shard_cache.stats c in
  Alcotest.(check int) "prune counted as invalidation" 1 s.Shard_cache.st_invalidations;
  Alcotest.(check int) "one live entry" 1 s.Shard_cache.st_entries;
  Alcotest.(check int) "prune below floor is a no-op" 0 (Shard_cache.prune c ~older_than:2)

let test_cache_eviction () =
  (* One shard of capacity 4: inserting more evicts FIFO, and the live
     entry count never exceeds the capacity. *)
  let c = Shard_cache.create ~shards:1 ~capacity:4 () in
  for id = 0 to 9 do
    ignore (Shard_cache.find_or_add c ~gen:0 id (fun () -> id))
  done;
  let s = Shard_cache.stats c in
  Alcotest.(check int) "entries bounded" 4 s.Shard_cache.st_entries;
  Alcotest.(check int) "evictions" 6 s.Shard_cache.st_evictions;
  (* The oldest ids are gone, the newest survive. *)
  Alcotest.(check (option int)) "id 0 evicted" None (Shard_cache.find c ~gen:0 0);
  Alcotest.(check (option int)) "id 9 live" (Some 9) (Shard_cache.find c ~gen:0 9)

(* Many domains hammering one cache: every id decodes exactly once
   (decode runs under the shard lock) and every probe sees the right
   value. *)
let test_cache_concurrent_decode_once () =
  let c = Shard_cache.create ~shards:8 ~capacity:1024 () in
  let decodes = Atomic.make 0 in
  let ids = 50 in
  let worker () =
    for round = 0 to 19 do
      ignore round;
      for id = 0 to ids - 1 do
        let v =
          Shard_cache.find_or_add c ~gen:0 id (fun () ->
              Atomic.incr decodes;
              id * 3)
        in
        if v <> id * 3 then failwith "wrong cached value"
      done
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  Alcotest.(check int) "each id decoded exactly once" ids (Atomic.get decodes);
  let s = Shard_cache.stats c in
  Alcotest.(check int) "misses = distinct ids" ids s.Shard_cache.st_misses

(* --- the engine's page-image kernels --- *)

(* The leaf scan and the child push over a page image must agree with
   [Node.decode]: one 13-entry leaf as the root, and a root over 13
   one-entry leaves (child i holds entry i under entry i's rectangle),
   read through the pool and through a Qexec's cache of page images. *)
let test_iter_rects_matches_decode () =
  let entries = Helpers.random_entries ~n:13 ~seed:7 in
  let page_size = Helpers.small_page_size in
  let buf = Node.encode ~page_size (Node.make Node.Leaf entries) in
  let pool = Helpers.small_pool () in
  let scratch = Rtree.create_empty pool in
  let leaf = Rtree.alloc_node scratch (Node.decode buf) in
  let one = Rtree.of_root ~pool ~root:leaf ~height:1 ~count:13 in
  let kids =
    Array.map
      (fun e -> Entry.make (Entry.rect e) (Rtree.alloc_node scratch (Node.make Node.Leaf [| e |])))
      entries
  in
  let two =
    Rtree.of_root ~pool ~root:(Rtree.alloc_node scratch (Node.make Node.Internal kids)) ~height:2
      ~count:13
  in
  let windows = Helpers.random_queries ~n:30 ~seed:8 in
  let batch = Qexec.run ~jobs:1 (Qexec.create two) windows in
  let in_page_order = List.sort Node.page_compare (Array.to_list entries) in
  Alcotest.(check bool) "leaf decodes in page order" true
    (Array.to_list (Node.entries (Node.decode buf)) = in_page_order);
  Array.iteri
    (fun i w ->
      let expected = List.filter (fun e -> Rect.intersects (Entry.rect e) w) in_page_order in
      let got, stats = Rtree.query_list one w in
      Alcotest.(check int) "hit count" (List.length expected) stats.Rtree.matched;
      Alcotest.(check bool) "same entries in page order" true (got = expected);
      let got, stats = Rtree.query_list two w in
      Alcotest.(check bool) "children pop in page order" true (got = expected);
      Alcotest.(check int)
        "one leaf per intersecting child" (List.length expected) stats.Rtree.leaf_visited;
      Alcotest.(check bool) "cached page images agree" true (fst batch.(i) = expected))
    windows;
  Alcotest.(check int) "page_length" 13 (Node.page_length buf);
  Alcotest.(check bool) "page_kind" true (Node.page_kind buf = Node.Leaf)

(* --- executor vs sequential --- *)

let batch_equal tree exec ~jobs queries =
  let par = Qexec.run ~jobs exec queries in
  Array.iteri
    (fun i w ->
      let seq_hits, seq_stats = Rtree.query_list tree w in
      let par_hits, par_stats = par.(i) in
      if seq_hits <> par_hits then failwith (Printf.sprintf "query %d: entry lists differ" i);
      if seq_stats <> par_stats then failwith (Printf.sprintf "query %d: stats differ" i))
    queries;
  true

(* Hit buffers every [run_into] check shares: each batch reuses
   buffers that batches of other sizes, on other trees, filled. *)
let shared_hits = ref [||]

let hits_for n =
  let have = Array.length !shared_hits in
  if n > have then
    shared_hits := Array.append !shared_hits (Array.init (n - have) (fun _ -> Rtree.hits_make ()));
  !shared_hits

let into_equal tree exec ~jobs queries =
  let into = hits_for (Array.length queries) in
  Qexec.run_into ~jobs exec queries ~into;
  Array.iteri
    (fun i w ->
      let seq_hits, seq_stats = Rtree.query_list tree w in
      let h = into.(i) in
      if List.init (Rtree.hits_length h) (Rtree.hits_get h) <> seq_hits then
        failwith (Printf.sprintf "run_into slot %d: hits differ" i);
      if Rtree.hits_stats h <> seq_stats then
        failwith (Printf.sprintf "run_into slot %d: stats differ" i))
    queries;
  true

let qcheck_executor_matches_sequential =
  QCheck.Test.make ~name:"qexec batch identical to sequential query loop" ~count:25
    (QCheck.pair
       (Helpers.arbitrary_scenario ~max_size:2_000 ())
       (QCheck.oneofl ~print:string_of_int [ 1; 2; 4 ]))
    (fun (sc, jobs) ->
      let n = sc.Helpers.sc_size and seed = sc.Helpers.sc_seed in
      let entries = Helpers.random_entries ~n ~seed in
      let tree = Prtree.load (Helpers.small_pool ()) entries in
      let queries = Helpers.random_queries ~n:20 ~seed:(seed + 1) in
      let exec = Qexec.create tree in
      batch_equal tree exec ~jobs queries
      && into_equal tree exec ~jobs queries
      && into_equal tree exec ~jobs (Array.sub queries 0 (1 + (seed mod 20))))

let test_executor_deterministic_across_jobs () =
  let entries = Helpers.random_entries ~n:3_000 ~seed:21 in
  let tree = Prtree.load (Helpers.small_pool ()) entries in
  let queries = Helpers.random_queries ~n:50 ~seed:22 in
  let exec = Qexec.create tree in
  let r1 = Qexec.run ~jobs:1 exec queries in
  let r4 = Qexec.run ~jobs:4 exec queries in
  let r4' = Qexec.run ~jobs:4 exec queries in
  Alcotest.(check bool) "jobs=1 = jobs=4" true (r1 = r4);
  Alcotest.(check bool) "jobs=4 re-run identical" true (r4 = r4');
  (* Aggregate stats cross-check against the sequential loop. *)
  let seq_matched =
    Array.fold_left (fun acc w -> acc + (Rtree.query_count tree w).Rtree.matched) 0 queries
  in
  let total = Rtree.fresh_stats () in
  Array.iter (fun (_, s) -> Rtree.merge_stats total s) r1;
  Alcotest.(check int) "total matched" seq_matched total.Rtree.matched

(* After a committed [Index_file.update], the executor's next batch pins
   the new generation: results reflect the new tree, nodes cached under
   the old generation are pruned once its last pin drops, and batches
   still agree with the sequential query on the updated tree. *)
let test_executor_sees_committed_updates () =
  with_temp (fun path ->
      let entries = Helpers.random_entries ~n:300 ~seed:31 in
      (* Pinned to pread: the assertions below are about the shard
         cache, which the mmap backend's direct mapped scans bypass
         (update visibility under mmap is covered in test_mmap). *)
      let idx =
        Index_file.create ~page_size:Helpers.small_page_size ~backend:`Pread path
          ~build:(fun pool -> Prtree.load pool entries)
      in
      Fun.protect
        ~finally:(fun () -> Index_file.close idx)
        (fun () ->
          let exec = Index_file.executor idx in
          let world = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0 in
          let queries = Array.append [| world |] (Helpers.random_queries ~n:15 ~seed:32) in
          (* Two passes: the second is served from the warm cache. *)
          ignore (Qexec.run ~jobs:2 exec queries);
          let r1 = Qexec.run ~jobs:2 exec queries in
          Alcotest.(check int) "all entries found" 300 (snd r1.(0)).Rtree.matched;
          let warm = Qexec.cache_stats exec in
          Alcotest.(check bool) "warm pass hits the cache" true (warm.Shard_cache.st_hits > 0);
          (* Commit an insert; the superblock commit counter advances. *)
          let extra = Entry.make (Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.5 ~ymax:0.5) 999_999 in
          Index_file.update idx (fun tree -> Dynamic.insert tree extra);
          let r2 = Qexec.run ~jobs:2 exec queries in
          Alcotest.(check int) "insert visible" 301 (snd r2.(0)).Rtree.matched;
          let s = Qexec.cache_stats exec in
          Alcotest.(check bool) "old-generation nodes pruned" true
            (s.Shard_cache.st_invalidations > 0);
          Alcotest.(check bool) "batch matches sequential on updated tree" true
            (batch_equal (Index_file.tree idx) exec ~jobs:4 queries)))

(* --- buffer pool miss accounting --- *)

(* A logical read that exhausts its attempt budget serves nothing and
   must count no miss; the caller's successful retry counts exactly
   one.  (The old accounting charged the miss up front, so one logical
   read could be billed twice.) *)
let test_pool_miss_counted_once_per_logical_read () =
  let config =
    { Failpoint.default with seed = 5; read_error = 0.999; max_consecutive = 3 }
  in
  let pager = Pager.wrap_faulty (Pager.create_memory ~page_size:Helpers.small_page_size ()) (Failpoint.create config) in
  (* Two attempts < max_consecutive 3: the first logical read fails. *)
  let pool = Buffer_pool.create ~capacity:16 ~retry:{ Buffer_pool.attempts = 2; backoff_base = 1 } pager in
  let id = Buffer_pool.alloc pool in
  Buffer_pool.write pool id (Bytes.create (Pager.page_size pager));
  Buffer_pool.flush pool;
  Buffer_pool.drop_clean pool;
  Buffer_pool.reset_counters pool;
  (match Buffer_pool.read pool id with
  | _ -> Alcotest.fail "expected the first logical read to fail"
  | exception Pager.Io_error _ -> ());
  Alcotest.(check int) "failed read counts no miss" 0 (Buffer_pool.misses pool);
  (* The failpoint's consecutive-fault cap now forces progress. *)
  ignore (Buffer_pool.read pool id);
  Alcotest.(check int) "retried read counts one miss" 1 (Buffer_pool.misses pool);
  ignore (Buffer_pool.read pool id);
  Alcotest.(check int) "cached re-read is a hit" 1 (Buffer_pool.misses pool);
  Alcotest.(check int) "hit recorded" 1 (Buffer_pool.hits pool);
  Alcotest.(check (float 1e-9)) "hit ratio" 0.5 (Buffer_pool.hit_ratio pool)

let test_pool_hit_ratio_nan_when_idle () =
  let pool = Helpers.small_pool () in
  Alcotest.(check bool) "nan before any read" true (Float.is_nan (Buffer_pool.hit_ratio pool))

let suite =
  [
    Alcotest.test_case "shard cache: basics" `Quick test_cache_basics;
    Alcotest.test_case "shard cache: generations coexist, prune reclaims" `Quick
      test_cache_generation_coexistence_and_prune;
    Alcotest.test_case "shard cache: eviction" `Quick test_cache_eviction;
    Alcotest.test_case "shard cache: concurrent decode-once" `Quick
      test_cache_concurrent_decode_once;
    Alcotest.test_case "zero-copy cursors match decode" `Quick test_iter_rects_matches_decode;
    Helpers.qcheck_case qcheck_executor_matches_sequential;
    Alcotest.test_case "executor deterministic across jobs" `Quick
      test_executor_deterministic_across_jobs;
    Alcotest.test_case "executor sees committed updates" `Quick
      test_executor_sees_committed_updates;
    Alcotest.test_case "pool: one miss per logical read" `Quick
      test_pool_miss_counted_once_per_logical_read;
    Alcotest.test_case "pool: hit ratio nan when idle" `Quick test_pool_hit_ratio_nan_when_idle;
  ]
