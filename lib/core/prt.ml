(* The public umbrella API: everything a user of the library needs under
   one module, plus a few convenience constructors.  See README.md for a
   guided tour; each re-exported module carries its own documentation. *)

(* Geometry. *)
module Rect = Prt_geom.Rect
module Hyperrect = Prt_geom.Hyperrect

(* Deterministic randomness and small utilities. *)
module Rng = Prt_util.Rng
module Stats = Prt_util.Stats
module Table = Prt_util.Table

(* The simulated disk and caching, plus deterministic fault injection
   for storage-stress testing. *)
module Page = Prt_storage.Page
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Lru = Prt_storage.Lru
module Failpoint = Prt_storage.Failpoint
module Superblock = Prt_storage.Superblock
module Scrub = Prt_storage.Scrub
module Shard_cache = Prt_storage.Shard_cache

(* Online resilience: retry/backoff with a circuit breaker, the shared
   poisoned-page registry, and cooperative query deadlines. *)
module Retry = Prt_storage.Retry
module Quarantine = Prt_storage.Quarantine
module Deadline = Prt_util.Deadline

(* Hilbert curves. *)
module Hilbert2d = Prt_hilbert.Hilbert2d
module Hilbert_nd = Prt_hilbert.Hilbert_nd

(* The R-tree framework. *)
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Split = Prt_rtree.Split
module Dynamic = Prt_rtree.Dynamic
module Knn = Prt_rtree.Knn
module Join = Prt_rtree.Join
module Query = Prt_rtree.Query

(* Batched multicore query execution (domain-sharded node cache +
   zero-copy leaf scans). *)
module Qexec = Prt_rtree.Qexec
module Parallel = Prt_util.Parallel

(* Bulk loaders: the paper's baselines plus STR, in-memory and external
   (I/O-counted) variants. *)
module Bulk = struct
  module Hilbert = Prt_rtree.Bulk_hilbert
  module Str = Prt_rtree.Bulk_str
  module Tgs = Prt_rtree.Bulk_tgs
  module Pack = Prt_rtree.Pack
  module External = Prt_rtree.Ext_load
end

(* Point-data baseline (Section 1.1 of the paper) and tree diagnostics. *)
module Kdbtree = Prt_rtree.Kdbtree
module Metrics = Prt_rtree.Metrics

(* The unified invariant audit (MBR tightness, leaf depth, fill bounds,
   page leaks, pseudo-node degree, priority-leaf extremeness). *)
module Audit = Prt_rtree.Audit

(* Crash-consistent persistent index files (shadow superblock commit +
   pre-image journal) and their fsck. *)
module Index_file = Prt_rtree.Index_file

(* The Priority R-tree — the paper's contribution. *)
module Pseudo_prtree = Prt_prtree.Pseudo
module Prtree = Prt_prtree.Prtree
module Prtree_external = Prt_prtree.Ext_build

(* The d-dimensional PR-tree (Theorem 2). *)
module Ndtree = struct
  module Entry = Prt_ndtree.Entry_nd
  module Node = Prt_ndtree.Node_nd
  module Rtree = Prt_ndtree.Rtree_nd
  module Pseudo = Prt_ndtree.Pseudo_nd
  module Prtree = Prt_ndtree.Prtree_nd
  module Audit = Prt_ndtree.Audit_nd
end

(* Dynamization via the logarithmic method, persistent and crash-safe:
   WAL-acknowledged inserts, on-disk PR-tree components, a CRC'd
   atomic-rename component manifest, fault-injected background merges.
   [Fsops]/[Wal]/[Manifest] are the storage substrate it stands on. *)
module Lsm = Prt_logmethod.Lsm
module Fsops = Prt_storage.Fsops
module Wal = Prt_storage.Wal
module Manifest = Prt_storage.Manifest

(* Observability: the domain-striped metrics registry, the always-on
   per-domain flight recorder (the one event store and Chrome
   trace-event writer), spans on its rings, and the minimal JSON used
   by all three.  [Metrics] above is the R-tree *quality* metrics
   module; this is runtime telemetry. *)
module Obs = struct
  module Metrics = Prt_obs.Metrics
  module Trace = Prt_obs.Trace
  module Flight = Prt_obs.Flight
  module Json = Prt_obs.Json
end

(* The network query tier: wire protocol, select-loop server with
   quotas / shedding / graceful drain, blocking client, multi-domain
   load generator, and fault-injected sockets for chaos testing. *)
module Serve = struct
  module Wire = Prt_serve.Wire
  module Quota = Prt_serve.Quota
  module Chaos = Prt_serve.Chaos
  module Server = Prt_serve.Server
  module Client = Prt_serve.Client
  module Load_gen = Prt_serve.Load_gen
end

(* Workloads from the paper's evaluation. *)
module Datasets = Prt_workloads.Datasets
module Tiger = Prt_workloads.Tiger
module Queries = Prt_workloads.Queries

(* --- convenience constructors --- *)

(* A fresh in-memory pool with the paper's 4 KB pages. *)
let memory_pool ?(page_size = Pager.default_page_size) ?(cache_pages = 4096) () =
  Buffer_pool.create ~capacity:cache_pages (Pager.create_memory ~page_size ())

(* A file-backed pool for persistent indexes. *)
let file_pool ?(page_size = Pager.default_page_size) ?(cache_pages = 4096) path =
  Buffer_pool.create ~capacity:cache_pages (Pager.create_file ~page_size path)

(* An in-memory pool over an unreliable simulated disk: faults are
   injected per [config], transient ones absorbed by the pool's retry
   policy.  The storage-stress testing path. *)
let faulty_pool ?(page_size = Pager.default_page_size) ?(cache_pages = 4096) ?retry config =
  let pager = Pager.wrap_faulty (Pager.create_memory ~page_size ()) (Failpoint.create config) in
  Buffer_pool.create ~capacity:cache_pages ?retry pager

let entries_of_rects rects = Array.mapi (fun i r -> Entry.make r i) rects

(* Build a PR-tree over rectangles in one call — the quickstart path. *)
let prtree ?pool rects =
  let pool = match pool with Some p -> p | None -> memory_pool () in
  Prtree.load pool (entries_of_rects rects)
