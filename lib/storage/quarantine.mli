(** Shared registry of damaged page ids.

    The degradation contract: when the read path hits a
    {!Pager.Corrupt_page} (or exhausts its retry budget on an
    {!Pager.Io_error}), the offending page id lands here and the query
    continues around the hole, tagging its result [Partial].  Later
    reads skip quarantined ids without re-touching the device, and the
    online scrub ({!Scrub.online}) heals or re-verifies pages and
    removes them.

    Domain-safe (mutex-guarded): multicore query workers add to it
    mid-batch.  {!mem}, which a degrading descent calls on every node it
    visits, takes the lock only while some page is quarantined: an
    atomic count, stored under the lock by every {!add}, {!remove} and
    {!clear}, answers [false] for an empty registry.  A page added
    before the call (on any domain, ordered by a join or a lock) is
    always seen; an add racing the call may or may not be, as with the
    locked check. *)

type reason =
  | Corrupt  (** Trailer verification failed: damage is on the platter. *)
  | Io_failed  (** Retry budget exhausted on transient errors. *)

type t

val create : unit -> t

val add : t -> int -> reason -> unit
(** Idempotent: re-adding a quarantined id keeps the original reason and
    does not bump {!added_total}. *)

val mem : t -> int -> bool
val find : t -> int -> reason option
val remove : t -> int -> unit

val count : t -> int
(** Quarantined ids right now (the atomic count; no lock). *)

val added_total : t -> int
(** Monotonic count of distinct additions (never decremented by
    {!remove}/{!clear}).  Each distinct addition also ticks the
    [resilience.pages_quarantined] counter and records a flight-recorder
    point from the adding domain. *)

val pages : t -> int list
(** Quarantined ids in increasing order. *)

val clear : t -> unit
val reason_to_string : reason -> string
val pp : Format.formatter -> t -> unit
