(** Process-wide registry of named counters, gauges and log-bucketed
    histograms — the quantitative half of the observability layer
    (events and spans live on the {!Flight} rings, see {!Trace}).

    Every mutator ({!add}, {!tick}, {!set_gauge}, {!observe}) is a no-op
    while collection is off, so instrumented hot paths pay one atomic
    flag check; and metrics never touch the pager, so the repository's
    I/O accounting is bit-identical with or without collection (the
    [zero-overhead-off] property test pins this down).

    Metrics are registered find-or-create by name; hot call sites hold
    the returned handle and pay no lookup.

    {b Domain safety.}  Each domain records into a private stripe
    reached through [Domain.DLS]; no shared mutable cell is ever
    written by two domains, so concurrent increments cannot be lost.
    Aggregating reads ({!value}, {!counter_values}, {!to_json}, ...)
    sum the stripes under the registry mutex: while writer domains are
    running the sum is a racy-but-untorn snapshot; once they have
    terminated (their stripes are folded into a retired accumulator on
    domain exit) it equals the exact sequential total.  Gauges are
    last-write-wins atomics. *)

type counter
type gauge
type histogram

val collecting : unit -> bool

val set_collecting : bool -> unit
(** Master switch.  While it is on, {!Trace} spans carry counter
    deltas; a traced run flips it on. *)

val counter : string -> counter
(** Find-or-create. Raises [Invalid_argument] if the name is already
    registered as a different kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

val add : counter -> int -> unit
(** Add to the calling domain's stripe of the counter. *)

val tick : counter -> unit

val value : counter -> int
(** Aggregated value across all domain stripes (see domain-safety note
    above for its consistency). *)

val counter_name : counter -> string

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> int -> unit
(** Record a sample into its logarithmic bucket (calling domain's
    stripe). *)

val bucket_index : int -> int
(** Bucket that holds a value: 0 for [v <= 0], else the bit length of
    [v] — bucket [k >= 1] spans [[2^(k-1), 2^k - 1]]. *)

val bucket_bounds : int -> int * int
(** Inclusive value range of a bucket index. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int
val histogram_bucket : histogram -> int -> int

val percentile : histogram -> float -> float
(** [percentile h p] estimates the [p]-th percentile ([0. <= p <= 100.])
    of the merged histogram by linear interpolation inside the owning
    log bucket, clamped to the observed min/max.  [nan] when empty. *)

val reset_all : unit -> unit
(** Zero every registered metric (registrations are kept).  Quiescent
    use only: increments racing with a reset may survive it. *)

val counter_values : unit -> int array
(** Dense aggregated snapshot of all counters in registration order —
    the span-boundary fast path. *)

val counter_deltas : since:int array -> (string * int) list
(** Per-counter change since a {!counter_values} snapshot, in
    registration order; counters registered after the snapshot count
    from zero. *)

val snapshot_counters : unit -> (string * int) list
(** Named aggregated counter values in registration order. *)

val to_json : unit -> Json.t
(** The whole registry: [{"counters": .., "gauges": .., "histograms": ..}];
    histogram buckets are exported sparsely with their value bounds. *)

val pp : Format.formatter -> unit -> unit
