(* Domain-safe sharded cache of page images, the read-side companion
   of the (single-domain) write-back {!Buffer_pool}.

   The buffer pool caches raw page bytes and is deliberately not safe to
   share across domains; the batched query executor instead keeps the
   internal pages of an index in this cache, as the immutable images
   [Pager.read_shared] returned, and scans them in place — so the hot
   internal levels are read once per generation instead of once per
   visit, and any number of domains can probe concurrently.  Keys are
   (page id, generation) pairs, spread over N shards by a multiplicative
   hash of the page id; each shard is a small hash table plus FIFO
   eviction queue guarded by its own mutex, so contention is 1/N of a
   single-lock design.

   Generation keying: every cached image is read at a commit generation
   (the index file's superblock commit counter), and the generation is
   part of the key — entries for several generations of the same page
   coexist, so snapshot readers pinned to an old generation keep their
   cache hits while a writer commits new ones.  Nothing is invalidated
   on probe; instead the executor calls {!prune} with the oldest
   generation any live snapshot still pins, and entries below that
   floor are dropped (counted as invalidations).  A miss runs its
   loader while holding the shard lock, so a page is read exactly once
   per generation no matter how many domains race for it (this also
   makes the miss count deterministic for a quiesced tree: one miss per
   distinct page reached, per generation).

   Counters live per shard (guarded by the shard lock) and are summed
   on demand — these are the authoritative per-cache numbers.  The same
   events are also ticked into the (domain-striped, hence domain-safe)
   {!Prt_obs} registry under [shard_cache.*], so a trace span over a
   multicore batch carries the cache traffic as counter deltas. *)

let m_hits = Prt_obs.Metrics.counter "shard_cache.hits"
let m_misses = Prt_obs.Metrics.counter "shard_cache.misses"
let m_invalidations = Prt_obs.Metrics.counter "shard_cache.invalidations"
let m_evictions = Prt_obs.Metrics.counter "shard_cache.evictions"

type 'v shard = {
  lock : Mutex.t;
  tbl : (int * int, 'v) Hashtbl.t; (* (page id, generation) -> value *)
  order : (int * int) Queue.t; (* insertion order, for FIFO eviction *)
  capacity : int; (* per shard *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

type 'v t = { shards : 'v shard array }

type stats = {
  st_hits : int;
  st_misses : int;
  st_invalidations : int;
  st_evictions : int;
  st_entries : int;
}

let default_shards = 64
let default_capacity = 65536

(* Round up to a power of two so shard selection is a mask. *)
let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(shards = default_shards) ?(capacity = default_capacity) () =
  if shards < 1 then invalid_arg "Shard_cache.create: shards must be >= 1";
  if capacity < shards then invalid_arg "Shard_cache.create: capacity below one entry per shard";
  let shards = pow2_at_least shards in
  let per_shard = max 1 (capacity / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            order = Queue.create ();
            capacity = per_shard;
            hits = 0;
            misses = 0;
            invalidations = 0;
            evictions = 0;
          });
  }

(* Fibonacci-hash the page id (generation excluded, so all generations
   of a page share a shard) so sequentially allocated pages spread
   evenly over the shards instead of striping. *)
let shard_of t id =
  let h = (id * 0x9E3779B1) lsr 16 in
  t.shards.(h land (Array.length t.shards - 1))

(* The FIFO queue may hold keys whose binding was already dropped by a
   prune; skip those rather than evicting a live entry. *)
let evict_one s =
  let rec go () =
    match Queue.take_opt s.order with
    | None -> ()
    | Some key ->
        if Hashtbl.mem s.tbl key then begin
          Hashtbl.remove s.tbl key;
          s.evictions <- s.evictions + 1;
          Prt_obs.Metrics.tick m_evictions
        end
        else go ()
  in
  go ()

let find_or_add t ~gen id decode =
  let s = shard_of t id in
  let key = (id, gen) in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.tbl key with
      | Some value ->
          s.hits <- s.hits + 1;
          Prt_obs.Metrics.tick m_hits;
          value
      | None ->
          s.misses <- s.misses + 1;
          Prt_obs.Metrics.tick m_misses;
          let value = decode () in
          if Hashtbl.length s.tbl >= s.capacity then evict_one s;
          Hashtbl.replace s.tbl key value;
          Queue.add key s.order;
          value)

let find t ~gen id =
  let s = shard_of t id in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.tbl (id, gen) with
      | Some value ->
          s.hits <- s.hits + 1;
          Prt_obs.Metrics.tick m_hits;
          Some value
      | None -> None)

let prune t ~older_than =
  Array.fold_left
    (fun total s ->
      Mutex.protect s.lock (fun () ->
          let stale =
            Hashtbl.fold
              (fun ((_, g) as key) _ acc -> if g < older_than then key :: acc else acc)
              s.tbl []
          in
          List.iter (Hashtbl.remove s.tbl) stale;
          let n = List.length stale in
          s.invalidations <- s.invalidations + n;
          Prt_obs.Metrics.add m_invalidations n;
          total + n))
    0 t.shards

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.tbl;
          Queue.clear s.order))
    t.shards

let stats t =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.lock (fun () ->
          {
            st_hits = acc.st_hits + s.hits;
            st_misses = acc.st_misses + s.misses;
            st_invalidations = acc.st_invalidations + s.invalidations;
            st_evictions = acc.st_evictions + s.evictions;
            st_entries = acc.st_entries + Hashtbl.length s.tbl;
          }))
    { st_hits = 0; st_misses = 0; st_invalidations = 0; st_evictions = 0; st_entries = 0 }
    t.shards

let reset_counters t =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          s.hits <- 0;
          s.misses <- 0;
          s.invalidations <- 0;
          s.evictions <- 0))
    t.shards

let hit_ratio st =
  let total = st.st_hits + st.st_misses in
  if total = 0 then Float.nan else float_of_int st.st_hits /. float_of_int total

let pp_stats ppf st =
  let ratio = hit_ratio st in
  Fmt.pf ppf "hits=%d misses=%d invalidated=%d evicted=%d entries=%d hit_ratio=%s" st.st_hits
    st.st_misses st.st_invalidations st.st_evictions st.st_entries
    (if Float.is_nan ratio then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. ratio))
