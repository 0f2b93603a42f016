(** Write-back LRU buffer pool over a {!Pager}.

    Cache hits do not touch the pager and therefore do not count as I/Os —
    this is how the paper's "all internal nodes cached" query setup is
    realized.

    The pool is also where device faults are absorbed: every pager
    operation runs under a bounded retry-with-backoff policy, so
    transient {!Pager.Io_error}s (e.g. from {!Pager.wrap_faulty}) are
    retried — full-page re-writes heal torn writes, re-reads heal short
    reads — and recorded in the {!degraded} channel.  A fault that
    survives the whole attempt budget is re-raised as
    [Pager.Io_error]: permanent failures surface, they never corrupt
    the tree silently. *)

type retry = { attempts : int; backoff_base : int }
(** Retry policy: total attempts per operation (>= 1) and the base of
    the exponential simulated backoff charged per retry (attempt [k]
    charges [backoff_base * 2^(k-1)] units). *)

val default_retry : retry
(** 5 attempts, backoff base 1 — enough to outlast any failpoint with
    the default [max_consecutive = 3] cap. *)

(** Degraded-mode statistics: what the shared {!Retry} engine observed
    (this is an alias of [Retry.stats]). *)
type degraded = Retry.stats = {
  mutable faults : int;  (** [Io_error]s seen from the pager. *)
  mutable retries : int;  (** Re-attempts made after a fault. *)
  mutable backoff : int;  (** Total simulated backoff units charged. *)
  mutable failures : int;  (** Operations that exhausted their attempts. *)
  mutable last_error : string option;
  mutable rejected : int;  (** Operations failed fast by an open breaker. *)
  mutable trips : int;  (** Circuit-breaker trips. *)
}

type t

val create : ?capacity:int -> ?retry:retry -> Pager.t -> t
(** [create ~capacity ~retry pager]: pool holding at most [capacity]
    pages (default 1024), retrying faulted pager operations per [retry]
    (default {!default_retry}) through a shared {!Retry} engine.  The
    engine's circuit breaker is disabled ({!Retry.default_policy}), so a
    pool's breaker always reads closed; a breaker is armed through a
    {!Retry.policy}, as [Lsm]'s [?retry_policy] passes one. *)

val pager : t -> Pager.t

val read : t -> int -> bytes
(** Read through the cache. The returned buffer is the cached page
    itself; callers must not mutate it (use {!write}). *)

val write : t -> int -> bytes -> unit
(** Stage a full-page write in the cache (written back on eviction or
    {!flush}).  The caller gives the buffer up: a page not cached is
    cached as that very buffer, not a copy ({!read} returns it), so the
    caller must not write to it afterwards.  A page already cached has
    its cached buffer overwritten. *)

val alloc : t -> int
(** Allocate a page in the underlying pager. *)

val free : t -> int -> unit
(** Drop any cached copy and free the page in the pager. *)

val flush : t -> unit
(** Write back all dirty pages (they stay cached, clean). *)

val drop_clean : t -> unit
(** Flush, then empty the cache entirely. *)

val is_clean : t -> bool
(** [true] iff no cached page is dirty — the on-disk image is current,
    so a file mapping may serve reads directly.  O(1). *)

val hits : t -> int

val misses : t -> int
(** Reads that had to go to the pager.  A miss is counted once per
    logical read that completes — a read that faults and is retried by
    the pool's own retry policy still counts one miss, and a read whose
    attempt budget is exhausted counts none (it served nothing). *)

val hit_ratio : t -> float
(** [hits / (hits + misses)]; [nan] before any read. *)

val evictions : t -> int
(** Cached pages pushed out by capacity pressure (each one a write-back
    if dirty) — surfaced by [prt stats] alongside hits/misses. *)

val degraded : t -> degraded
(** The live degraded-mode counters (reset by {!reset_counters}). *)

val retry_engine : t -> Retry.t
(** The pool's fault-absorption engine, exposed for breaker-state
    inspection ([Retry.breaker_state]) and tests. *)

val reset_counters : t -> unit
val pp_degraded : Format.formatter -> degraded -> unit
