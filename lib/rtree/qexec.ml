(* Batched multicore query executor.

   Runs an array of window queries across OCaml 5 domains.  Workers pull
   contiguous chunks of the query array off a shared atomic counter
   (chunked work-stealing: cheap when queries are uniform, self-balancing
   when they are not) and write each query's result into its own slot of
   a preallocated array, so the output is deterministic and ordered by
   query index regardless of scheduling.

   One skeleton runs every batch — admission, the snapshot pin and its
   release, the page source and policy, the work-stealing loop — and a
   slot function says what a query leaves behind: [run_into] descends
   into the caller's [Rtree.hits] buffer for slot [i] (unboxed hits, no
   allocation per hit), [run] into the worker's scratch buffer and then
   builds the entry list.

   Per query, each worker runs the one descent engine of [Rtree] on the
   batch's snapshot:

   - on the mmap backend every worker scans the one shared mapping (CRC
     gate plus the version-store protocol for pinned generations), with
     no per-domain state and no cache — a mapped internal visit is
     cheaper than a cache hit;
   - on pread, internal pages come from a {!Prt_storage.Shard_cache} of
     page images keyed by (page id, generation), read once per
     generation and then shared read-only by every domain; leaf pages
     are read through [Pager.read_shared ~gen], which bypasses the
     single-domain buffer pool and serves retained pre-images for
     pinned generations.  Both are scanned in place by the same bytes
     kernels.

   Leaf vs internal is decided by depth against the snapshot's tree
   height, so no kind byte needs inspecting before the page is read.
   Each batch runs against a snapshot acquired at batch start (for an
   index file: a pinned superblock generation, making the batch immune
   to concurrent commits; the default provider reads the live tree and
   requires it to stay read-only for the duration of the batch).  The
   snapshot is released when the batch ends, and cached pages below the
   new pin floor are pruned.

   Workers record their own telemetry: the [Prt_obs.Metrics] registry
   is striped per domain, so each worker ticks visit/degradation
   counters and the per-query latency histogram directly, and drops
   span events on its own [Prt_obs.Flight] ring.  Aggregation happens
   at read time — there is no coordinator-side mirroring left. *)

module Buffer_pool = Prt_storage.Buffer_pool
module Shard_cache = Prt_storage.Shard_cache
module Quarantine = Prt_storage.Quarantine
module Parallel = Prt_util.Parallel
module Deadline = Prt_util.Deadline

(* A pinned snapshot for one batch: the committed generation to read at
   plus the root/height of that generation's tree.  [snap_release] drops
   the pin (idempotent) and returns the new pin floor, which drives
   cache pruning. *)
type snap = {
  snap_gen : int;
  snap_root : int;
  snap_height : int;
  snap_release : unit -> int;
}

type t = {
  tree : Rtree.t;
  cache : bytes Shard_cache.t;  (* internal page images, for pread *)
  snapshot : unit -> snap;  (* acquired at each batch start *)
  quarantine : Quarantine.t;
  max_in_flight : int option;  (* admission-control bound, if any *)
  in_flight : int Atomic.t;  (* queries admitted and not yet finished *)
  pruned_below : int Atomic.t;  (* highest pin floor the cache was pruned to *)
}

exception Overloaded of { in_flight : int; limit : int }

let () =
  Printexc.register_printer (function
    | Overloaded { in_flight; limit } ->
        Some (Printf.sprintf "Qexec.Overloaded: %d queries in flight, limit %d" in_flight limit)
    | _ -> None)

let m_batches = Prt_obs.Metrics.counter "qexec.batches"
let m_queries = Prt_obs.Metrics.counter "qexec.queries"
let m_rejected = Prt_obs.Metrics.counter "resilience.batches_rejected"

let create ?snapshot ?quarantine ?max_in_flight tree =
  (match max_in_flight with
  | Some l when l < 1 -> invalid_arg "Qexec.create: max_in_flight must be >= 1"
  | _ -> ());
  (* Default snapshot provider, for trees that are never modified while
     the executor is in use: flush the pool so [read_shared] sees the
     current pages, then read live (generation 0 = no pin, no MVCC). *)
  let snapshot =
    match snapshot with
    | Some f -> f
    | None ->
        fun () ->
          Buffer_pool.flush (Rtree.pool tree);
          {
            snap_gen = 0;
            snap_root = Rtree.root tree;
            snap_height = Rtree.height tree;
            snap_release = (fun () -> 0);
          }
  in
  {
    tree;
    cache = Shard_cache.create ();
    snapshot;
    quarantine = (match quarantine with Some q -> q | None -> Quarantine.create ());
    max_in_flight;
    in_flight = Atomic.make 0;
    pruned_below = Atomic.make 0;
  }

let tree t = t.tree
let quarantine t = t.quarantine
let cache_stats t = Shard_cache.stats t.cache
let cache_hit_ratio t = Shard_cache.hit_ratio (Shard_cache.stats t.cache)

(* Query [i] on whatever domain the work-stealing loop runs it: a
   flight span bracketing [descend ()], and — while collection is on —
   the same [query.*] counters and latency histogram as the
   single-domain path, recorded into this domain's stripe. *)
let recorded i descend =
  Prt_obs.Flight.begin_span "qexec.query" ~arg:i;
  let stats =
    if not (Prt_obs.Metrics.collecting ()) then descend ()
    else begin
      let t0 = Unix.gettimeofday () in
      let stats = descend () in
      let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      Rtree.record_query_stats ~latency_us stats;
      stats
    end
  in
  Prt_obs.Flight.end_span "qexec.query" ~arg:i;
  stats

(* The batch skeleton both forms share: admission, the snapshot pin and
   its release, the page source and policy, and the work-stealing loop.
   [slot src pol snapshot i window] runs query [i]; the snapshot pinned
   at batch start makes every worker descend the same tree, and
   degradation is per subtree, as in [Rtree.query] (the quarantine is
   safe to share). *)
let batch ?jobs ?(deadline = Deadline.none) t queries ~slot =
  let n = Array.length queries in
  (* Admission control: shed the whole batch up front rather than queue
     unboundedly — the caller gets a typed [Overloaded] (with the load
     that triggered it) instead of latency collapse.  The counter is
     atomic because concurrent callers from other systhreads are the
     reason a bound exists at all. *)
  (match t.max_in_flight with
  | Some limit ->
      let before = Atomic.fetch_and_add t.in_flight n in
      if before + n > limit then begin
        ignore (Atomic.fetch_and_add t.in_flight (-n));
        Prt_obs.Metrics.tick m_rejected;
        raise (Overloaded { in_flight = before; limit })
      end
  | None -> ());
  let release () =
    match t.max_in_flight with
    | Some _ -> ignore (Atomic.fetch_and_add t.in_flight (-n))
    | None -> ()
  in
  Fun.protect ~finally:release @@ fun () ->
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_domains ()
  in
  let snap = t.snapshot () in
  (* Drop the pin whatever happens, then prune cached pages below the
     new pin floor.  The floor only rises, and the CAS makes exactly one
     releasing batch prune to any given floor — concurrent batches
     racing on release never double-count invalidations. *)
  let release_snap () =
    let floor = snap.snap_release () in
    let rec prune_to () =
      let cur = Atomic.get t.pruned_below in
      if floor > cur then
        if Atomic.compare_and_set t.pruned_below cur floor then
          ignore (Shard_cache.prune t.cache ~older_than:floor)
        else prune_to ()
    in
    prune_to ()
  in
  Fun.protect ~finally:release_snap @@ fun () ->
  Prt_obs.Trace.with_span "qexec.batch"
    ~args:Prt_obs.Json.[ ("queries", Int n); ("jobs", Int jobs) ]
    (fun () ->
      let snapshot =
        Some { Rtree.sv_gen = snap.snap_gen; sv_root = snap.snap_root; sv_height = snap.snap_height }
      in
      let src =
        match Rtree.page_source t.tree snapshot with
        | Rtree.Mapped _ as s -> s
        | Rtree.Pool | Rtree.Shared _ -> Rtree.Shared (Some t.cache)
      in
      let pol = { (Rtree.policy Rtree.Window) with quarantine = Some t.quarantine; deadline } in
      Prt_obs.Metrics.tick m_batches;
      Prt_obs.Metrics.add m_queries n;
      let next = Atomic.make 0 in
      let chunk = max 1 (n / (jobs * 8)) in
      let worker () =
        let rec loop () =
          let start = Atomic.fetch_and_add next chunk in
          if start < n then begin
            for i = start to min n (start + chunk) - 1 do
              slot src pol snapshot i queries.(i)
            done;
            loop ()
          end
        in
        loop ()
      in
      (* Workers record on their own stripes and rings.  The span ends
         after the joins, so its counter deltas hold the batch's totals
         exactly. *)
      if jobs = 1 || n <= 1 then worker ()
      else begin
        let spawned = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
        worker ();
        Array.iter Domain.join spawned
      end)

let run_into ?jobs ?deadline t queries ~into =
  if Array.length into < Array.length queries then
    invalid_arg "Qexec.run_into: fewer hit buffers than windows";
  batch ?jobs ?deadline t queries ~slot:(fun src pol snapshot i window ->
      let h = into.(i) in
      ignore
        (recorded i (fun () ->
             Rtree.descend_into t.tree src pol snapshot window ~into:h;
             Rtree.hits_stats h)))

let run ?jobs ?deadline t queries =
  let results = Array.make (Array.length queries) ([], Rtree.fresh_stats ()) in
  batch ?jobs ?deadline t queries ~slot:(fun src pol snapshot i window ->
      let acc = ref [] in
      let stats =
        recorded i (fun () ->
            Rtree.descend_iter t.tree src pol snapshot window ~f:(fun e -> acc := e :: !acc))
      in
      results.(i) <- (List.rev !acc, stats));
  results
