(** Spans: named phases of work — a bulk-loading stage, an
    external-sort pass, a query batch — recorded on the {!Flight}
    rings.

    A span is a begin/end pair on the calling domain's ring.  While
    {!Metrics} collection is on, the end event also carries the
    non-zero deltas of every registered counter across the span, so a
    span over a bulk-loading phase carries exactly the pager
    reads/writes, cache hits/misses and sort passes that happened
    inside it — the phase-attributed accounting behind the paper's
    Figures 9-11.  The deltas are process-wide sums over every
    domain's stripe.  {!Flight.dump} writes spans as Chrome ["X"]
    events on their domain's track. *)

val with_span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~args name f] runs [f] inside a span whose begin event
    carries [args].  The end event is recorded however [f] exits, so
    spans stay balanced when it raises. *)

val enabled : unit -> bool
(** Whether spans carry counter deltas, i.e. {!Metrics.collecting}. *)

type span_stats = {
  span_name : string;
  calls : int;
  total_us : float;  (** inclusive of child spans *)
  io : (string * int) list;  (** summed integer end values (counter deltas) *)
}

val summary : unit -> span_stats list
(** Every span on the rings, aggregated per name in first-seen order:
    each ring's balanced begin/end pairs, plus ends whose begin fell off
    the ring (a call with no time).  The span-aware report printed by
    the bench harness and [prt profile]. *)
