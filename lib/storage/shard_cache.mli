(** Domain-safe sharded cache of page images (or any immutable value
    read from a page), keyed by (page id, generation).

    N mutex-guarded shards (hash table + FIFO queue each), holding
    values keyed by the page id {e and} the commit generation they were
    read at.  Entries for several generations of the same page coexist
    — snapshot readers pinned to an old generation keep their hits
    while a writer commits new generations — and a probe never
    invalidates anything.  Reclamation is explicit: call {!prune} with
    the oldest generation any live snapshot still pins.

    A miss runs its loader under the shard lock, so each page is loaded
    at most once per generation regardless of how many domains race for
    it.  All operations are safe to call from any domain; hits, misses,
    invalidations and evictions are also counted in the domain-striped
    {!Prt_obs.Metrics} registry under [shard_cache.*]. *)

type 'v t

val create : ?shards:int -> ?capacity:int -> unit -> 'v t
(** [create ()] makes an empty cache with [shards] mutex-guarded shards
    (rounded up to a power of two, default 64) holding at most
    [capacity] entries in total (default 65536).  Raises
    [Invalid_argument] if [shards < 1] or [capacity < shards]. *)

val find_or_add : 'v t -> gen:int -> int -> (unit -> 'v) -> 'v
(** [find_or_add t ~gen id decode] returns the cached value for [id]
    decoded under generation [gen] if present; otherwise calls [decode]
    (under the shard lock) and caches the result under [(id, gen)].
    Entries of other generations are left untouched. *)

val find : 'v t -> gen:int -> int -> 'v option
(** Probe without decoding. *)

val prune : 'v t -> older_than:int -> int
(** Drop every entry whose generation is strictly below [older_than]
    (the pin floor: no live snapshot can probe below it), counting each
    as an invalidation.  Returns the number of entries dropped. *)

val clear : 'v t -> unit
(** Drop every cached entry (counters are kept). *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_invalidations : int;  (** stale-generation entries dropped by {!prune} *)
  st_evictions : int;  (** capacity evictions (FIFO per shard) *)
  st_entries : int;  (** live cached entries right now *)
}

val stats : 'v t -> stats
(** Counters summed across shards (each shard read under its lock). *)

val reset_counters : 'v t -> unit

val hit_ratio : stats -> float
(** [hits / (hits + misses)]; [nan] before any probe. *)

val pp_stats : Format.formatter -> stats -> unit
