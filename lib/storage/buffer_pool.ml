(* Write-back buffer pool over a pager.

   The paper's query experiments cache all internal R-tree nodes (at most
   6 MB) so that reported query I/Os equal the number of leaves read; the
   buffer pool is the component that realizes such caching here.  Reads
   served from the cache do not touch the pager and therefore do not
   count as I/Os; dirty pages are written back on eviction or flush.

   The pool is also the fault-absorption layer: every pager operation
   runs under a bounded retry-with-backoff policy, so transient
   [Pager.Io_error]s (from a fault-injecting pager, see
   {!Pager.wrap_faulty}) are retried and recorded in the [degraded]
   statistics channel, while permanent failures surface as [Io_error]
   after the attempt budget is exhausted.  Retrying a full-page write
   also heals torn writes, and re-reading heals short reads, because
   pages are always transferred whole. *)

type retry = { attempts : int; backoff_base : int }

let default_retry = { attempts = 5; backoff_base = 1 }

type degraded = Retry.stats = {
  mutable faults : int;
  mutable retries : int;
  mutable backoff : int;
  mutable failures : int;
  mutable last_error : string option;
  mutable rejected : int;
  mutable trips : int;
}

type cached = { data : bytes; mutable dirty : bool }

type t = {
  pager : Pager.t;
  cache : (int, cached) Lru.t;
  engine : Retry.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirties : int;
      (* Cached pages currently dirty.  The mmap read path consults
         [is_clean] before trusting the file mapping: any staged write
         makes the on-disk image stale, so queries fall back to the
         pool until the next flush. *)
}

(* Observability mirrors of the per-pool counters (see the note in
   {!Pager}): registry-level aggregates across all pools, bumped next to
   the fields so span deltas attribute caching behaviour per phase. *)
let m_hits = Prt_obs.Metrics.counter "pool.hits"
let m_misses = Prt_obs.Metrics.counter "pool.misses"
let m_evictions = Prt_obs.Metrics.counter "pool.evictions"
let m_faults = Prt_obs.Metrics.counter "pool.faults"
let m_retries = Prt_obs.Metrics.counter "pool.retries"
let m_failures = Prt_obs.Metrics.counter "pool.failures"
let m_rejected = Prt_obs.Metrics.counter "pool.rejected"
let m_trips = Prt_obs.Metrics.counter "retry.circuit_trips"

let observe = function
  | Retry.Fault -> Prt_obs.Metrics.tick m_faults
  | Retry.Retried -> Prt_obs.Metrics.tick m_retries
  | Retry.Failed -> Prt_obs.Metrics.tick m_failures
  | Retry.Rejected -> Prt_obs.Metrics.tick m_rejected
  | Retry.Tripped -> Prt_obs.Metrics.tick m_trips

let create ?(capacity = 1024) ?(retry = default_retry) pager =
  if retry.attempts < 1 then invalid_arg "Buffer_pool.create: retry attempts must be >= 1";
  if retry.backoff_base < 0 then invalid_arg "Buffer_pool.create: backoff must be non-negative";
  let policy =
    { Retry.default_policy with attempts = retry.attempts; backoff_base = retry.backoff_base }
  in
  {
    pager;
    cache = Lru.create capacity;
    engine = Retry.create ~policy ~observe ();
    hits = 0;
    misses = 0;
    evictions = 0;
    dirties = 0;
  }

let pager t = t.pager
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let degraded t = Retry.stats t.engine
let retry_engine t = t.engine

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then Float.nan else float_of_int t.hits /. float_of_int total

(* One pager operation under the shared retry engine (see {!Retry}):
   transient [Io_error]s are retried with jittered exponential backoff;
   exhaustion re-raises with the operation name, so permanent faults
   surface cleanly instead of corrupting state. *)
let with_retry t op f = Retry.run t.engine ~op f

let write_back t id (c : cached) =
  if c.dirty then with_retry t "write_back" (fun () -> Pager.write t.pager id c.data)

let evicted t = function
  | Some (id, c) ->
      t.evictions <- t.evictions + 1;
      Prt_obs.Metrics.tick m_evictions;
      if c.dirty then t.dirties <- t.dirties - 1;
      write_back t id c
  | None -> ()

let read t id =
  match Lru.find t.cache id with
  | Some c ->
      t.hits <- t.hits + 1;
      Prt_obs.Metrics.tick m_hits;
      c.data
  | None ->
      (* Fetch first, count after: a miss is recorded once per *logical*
         read that completes.  Counting before the retry loop would
         charge one miss per caller-level retry of a read whose fault
         budget was exhausted — the same logical read, counted again on
         every attempt — which skews the hit ratio under fault
         injection. *)
      let data = with_retry t "read" (fun () -> Pager.read t.pager id) in
      t.misses <- t.misses + 1;
      Prt_obs.Metrics.tick m_misses;
      evicted t (Lru.add t.cache id { data; dirty = false });
      data

let write t id data =
  if Bytes.length data <> Pager.page_size t.pager then
    invalid_arg "Buffer_pool.write: buffer size mismatch";
  match Lru.find t.cache id with
  | Some c ->
      if c.data != data then Bytes.blit data 0 c.data 0 (Bytes.length data);
      if not c.dirty then t.dirties <- t.dirties + 1;
      c.dirty <- true
  | None ->
      (* The caller gave the buffer up: keep it, do not copy it (a 4 KB
         copy would go straight into the major heap). *)
      t.dirties <- t.dirties + 1;
      evicted t (Lru.add t.cache id { data; dirty = true })

let alloc t = with_retry t "alloc" (fun () -> Pager.alloc t.pager)

let free t id =
  (match Lru.remove t.cache id with
  | Some c when c.dirty -> t.dirties <- t.dirties - 1
  | _ -> ());
  Pager.free t.pager id

(* A clean pool returns at once: [Qexec]'s default snapshot provider
   flushes at every batch start, and a walk over every cached frame
   would find nothing to write. *)
let flush t =
  if t.dirties > 0 then
    Lru.iter t.cache (fun id c ->
        if c.dirty then begin
          with_retry t "flush" (fun () -> Pager.write t.pager id c.data);
          c.dirty <- false;
          t.dirties <- t.dirties - 1
        end)

let is_clean t = t.dirties = 0

let drop_clean t =
  flush t;
  Lru.clear t.cache

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  Retry.reset t.engine

let pp_degraded = Retry.pp_stats
