(** The fault-tolerant network query tier: a single-threaded
    [select]-loop server speaking the {!Wire} protocol over Unix-domain
    or TCP sockets, executing pipelined batched window queries through
    a snapshot-pinning {!Prt_rtree.Qexec} executor.

    Robustness model (see DESIGN.md, "Serving model"):

    - {b Per-client quotas}: each connection owns a {!Quota} token
      bucket (one token per query window); an empty bucket earns a
      typed [E_quota] error with an exact retry-after hint.
    - {b Load shedding}: parsed requests wait in a bounded queue; past
      [max_queue] the newest request is rejected with [E_overloaded]
      and a retry hint instead of queueing unboundedly.
      {!Prt_rtree.Qexec}'s own [max_in_flight] admission control
      backstops this — its [Overloaded] also maps to [E_overloaded].
    - {b Deadline propagation}: a request's [deadline_ms] becomes a
      {!Prt_util.Deadline.t} when the frame is parsed (capped at
      [max_deadline_ms]) and rides into the query descent; a request
      whose deadline expires while queued is shed with [E_deadline]
      rather than executed late.
    - {b Slow clients}: a connection whose pending replies make no
      write progress for [write_timeout_ms] is closed — one stalled
      reader cannot pin the server's memory.
    - {b Reply path}: a batch runs through
      {!Prt_rtree.Qexec.run_into} into hit buffers the server owns and
      reuses, and its results frame is written from them into the
      connection's {!Wire.Out} buffer before the next batch runs; a
      reply over [max_payload] is refused with [E_too_large].  Past
      warm-up a request allocates the same few hundred words whatever
      its hit count.
    - {b Graceful drain}: {!request_drain} (domain-safe; the CLI wires
      SIGTERM/SIGINT to it, clients can send [Drain]) stops accepting
      and reading, finishes every already-parsed request, flushes
      replies under [drain_deadline_ms], closes everything and returns.
      Snapshot pins are per-batch (released even on exceptions), so a
      drained — or crashed — server leaks none.

    Failure containment: per-connection socket errors ([EPIPE],
    [ECONNRESET], injected chaos) kill only that connection; malformed
    frames earn a typed [E_malformed] reply before the close; a
    {!Prt_storage.Failpoint.Simulated_crash} from an armed kill-point
    budget propagates out of {!run} (it models process death — the
    harness catches it and checks nothing leaked).  Everything is
    observable through [serve.*] metrics and flight-recorder events. *)

module Index_file = Prt_rtree.Index_file

type config = {
  quota_rate : float;  (** tokens (query windows) per second per connection *)
  quota_burst : float;  (** bucket capacity; [<= 0.] disables quotas *)
  max_in_flight : int;  (** {!Prt_rtree.Qexec} admission cap; [0] = unbounded *)
  max_queue : int;  (** parsed-but-unexecuted requests across all connections *)
  max_conns : int;
  max_windows : int;  (** per-request window cap ([E_too_large] past it) *)
  max_payload : int;
      (** frame payload cap: a larger request frame is malformed, and a
          reply that would be larger is refused with [E_too_large] *)
  write_timeout_ms : float;  (** slow-client cutoff *)
  drain_deadline_ms : float;
  max_deadline_ms : float;  (** cap on client-supplied deadline budgets *)
  overload_retry_ms : float;  (** retry-after hint on shed requests *)
  jobs : int;  (** executor domains per batch *)
}

val default_config : config

(** Monotone counters, maintained independently of the metrics
    registry's collecting flag. *)
type report = {
  mutable accepted : int;
  mutable closed : int;
  mutable served : int;  (** query requests answered with [Results] *)
  mutable windows : int;
  mutable matched : int;
  mutable health_served : int;
  mutable shed_overload : int;
  mutable shed_quota : int;
  mutable shed_deadline : int;
  mutable shed_draining : int;
  mutable too_large : int;  (** requests over [max_windows], replies over [max_payload] *)
  mutable malformed : int;
  mutable slow_closed : int;
  mutable io_closed : int;
  mutable drain_forced : int;  (** connections cut by the drain deadline *)
}

type t

val create : ?chaos:Prt_storage.Failpoint.t -> ?config:config -> Index_file.t -> t
(** A server over an open index file (not owned: the caller closes it
    after {!run} returns).  [chaos] wraps every accepted or injected
    connection in a {!Chaos} failure policy — the chaos-testing hook.
    Creation ignores [SIGPIPE] process-wide so a client hanging up
    mid-reply surfaces as [Unix_error (EPIPE, ...)] on that connection
    instead of killing the process. *)

val listen_unix : t -> string -> unit
(** Bind and listen on a Unix-domain socket path (an existing socket
    file is replaced).  Call before {!run}, from the owning domain. *)

val listen_tcp : ?host:string -> t -> int -> unit
(** Bind and listen on TCP [host:port] (default host 127.0.0.1). *)

val inject : t -> Unix.file_descr -> unit
(** Adopt an already-connected socket (e.g. one end of a socketpair) as
    a client connection — the listenerless path harnesses drive.
    Domain-safe; picked up at the next loop step. *)

val request_drain : t -> unit
(** Begin graceful shutdown (domain-safe, idempotent). *)

val draining : t -> bool
val report : t -> report

val step : t -> timeout:float -> bool
(** One event-loop iteration ([select] bounded by [timeout] seconds).
    [false] once the server has fully drained (all connections closed,
    listeners shut). *)

val run : ?step_timeout:float -> t -> report
(** Loop {!step} until drained; returns the final counters.  Raises
    only {!Prt_storage.Failpoint.Simulated_crash} (armed kill-point
    harnesses). *)

val pp_report : Format.formatter -> report -> unit
