(* The network query tier.  One domain runs a select loop over the
   listeners and every live connection; query batches execute inline
   through a snapshot-pinning Qexec executor (so batches pin the
   committed MVCC generation for exactly their duration — drain or
   crash can never leak a pin, because none is held between batches).

   Request lifecycle: bytes -> Wire.Reader -> a bounded global FIFO of
   parsed requests (arrival order, so per-connection replies stay in
   request order) -> execute -> reply frames appended to the
   connection's output buffer -> non-blocking flush.  Every shed path
   is a typed Wire.Error with a retry-after hint; every connection
   failure mode (EOF mid-frame, EPIPE on reply, injected chaos) is
   absorbed by closing that connection only.

   The reply path writes each answer once.  The server owns one array
   of [Rtree.hits] buffers, grown to the largest batch it has seen and
   kept at its high-water capacity; [Qexec.run_into] fills slot [i]
   with window [i]'s unboxed hits, and [Wire.Out.add_results] writes
   the results frame from them into the connection's [Wire.Out]
   buffer before the next batch reuses them.  The payload size is
   known before a byte is written, so a reply over [max_payload] is
   refused with a typed [E_too_large] instead of a frame the client
   would reject as oversized.  Past warm-up, a request costs the same
   few hundred words of allocation however many hits it returns
   (checked by [@serve-smoke]).  A flush hands every pending byte to
   one write. *)

module Rect = Prt_geom.Rect
module Deadline = Prt_util.Deadline
module Failpoint = Prt_storage.Failpoint
module Retry = Prt_storage.Retry
module Buffer_pool = Prt_storage.Buffer_pool
module Superblock = Prt_storage.Superblock
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Index_file = Prt_rtree.Index_file
module Metrics = Prt_obs.Metrics
module Flight = Prt_obs.Flight

type config = {
  quota_rate : float;
  quota_burst : float;
  max_in_flight : int;
  max_queue : int;
  max_conns : int;
  max_windows : int;
  max_payload : int;
  write_timeout_ms : float;
  drain_deadline_ms : float;
  max_deadline_ms : float;
  overload_retry_ms : float;
  jobs : int;
}

let default_config =
  {
    quota_rate = 0.0;
    quota_burst = 0.0;
    max_in_flight = 0;
    max_queue = 256;
    max_conns = 64;
    max_windows = 1024;
    max_payload = Wire.default_max_payload;
    write_timeout_ms = 5_000.0;
    drain_deadline_ms = 5_000.0;
    max_deadline_ms = 60_000.0;
    overload_retry_ms = 50.0;
    jobs = 1;
  }

type report = {
  mutable accepted : int;
  mutable closed : int;
  mutable served : int;
  mutable windows : int;
  mutable matched : int;
  mutable health_served : int;
  mutable shed_overload : int;
  mutable shed_quota : int;
  mutable shed_deadline : int;
  mutable shed_draining : int;
  mutable too_large : int;
  mutable malformed : int;
  mutable slow_closed : int;
  mutable io_closed : int;
  mutable drain_forced : int;
}

let fresh_report () =
  {
    accepted = 0;
    closed = 0;
    served = 0;
    windows = 0;
    matched = 0;
    health_served = 0;
    shed_overload = 0;
    shed_quota = 0;
    shed_deadline = 0;
    shed_draining = 0;
    too_large = 0;
    malformed = 0;
    slow_closed = 0;
    io_closed = 0;
    drain_forced = 0;
  }

(* serve.* metrics, mirrored from the report counters when collection is
   on (the report itself never depends on the registry). *)
let m_accepted = Metrics.counter "serve.accepted"
let m_closed = Metrics.counter "serve.closed"
let m_served = Metrics.counter "serve.requests"
let m_windows = Metrics.counter "serve.windows"
let m_matched = Metrics.counter "serve.matched"
let m_shed_overload = Metrics.counter "serve.shed_overload"
let m_shed_quota = Metrics.counter "serve.shed_quota"
let m_shed_deadline = Metrics.counter "serve.shed_deadline"
let m_shed_draining = Metrics.counter "serve.shed_draining"
let m_malformed = Metrics.counter "serve.malformed"
let m_slow_closed = Metrics.counter "serve.slow_client_closed"
let m_request_us = Metrics.histogram "serve.request_us"

type conn = {
  stream : Chaos.t;
  reader : Wire.Reader.t;
  quota : Quota.t option;
  peer : string;
  out : Wire.Out.t;  (* pending reply frames, written front first *)
  mutable last_progress : float;  (* Deadline.now () of the last write progress *)
  mutable alive : bool;
  mutable closing : bool;  (* stop reading; close once the output drains *)
}

type pending = {
  p_conn : conn;
  p_req : Wire.request;
  p_deadline : Deadline.t option;
  p_pre_drain : bool;  (* parsed before drain began: in-flight, runs to completion *)
}

type t = {
  cfg : config;
  idx : Index_file.t;
  exec : Qexec.t;
  chaos : Failpoint.t option;
  rep : report;
  mutable listeners : Unix.file_descr list;
  mutable conns : conn list;
  queue : pending Queue.t;
  drain_flag : bool Atomic.t;
  inject_lock : Mutex.t;
  mutable injected : Unix.file_descr list;
  mutable draining : bool;  (* drain in effect: post-drain queries get E_draining *)
  mutable drain_started : bool;  (* begin_drain ran: listeners closed, buffers flushed *)
  mutable drain_deadline : Deadline.t;
  mutable finished : bool;
  scratch : bytes;
  mutable hits : Rtree.hits array;  (* one per window of the largest batch so far *)
}

(* A client that hangs up mid-reply must surface as EPIPE on its write,
   not kill the process. *)
let sigpipe_ignored =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let create ?chaos ?(config = default_config) idx =
  Lazy.force sigpipe_ignored;
  let exec =
    if config.max_in_flight > 0 then Index_file.executor ~max_in_flight:config.max_in_flight idx
    else Index_file.executor idx
  in
  {
    cfg = config;
    idx;
    exec;
    chaos;
    rep = fresh_report ();
    listeners = [];
    conns = [];
    queue = Queue.create ();
    drain_flag = Atomic.make false;
    inject_lock = Mutex.create ();
    injected = [];
    draining = false;
    drain_started = false;
    drain_deadline = Deadline.none;
    finished = false;
    scratch = Bytes.create 65536;
    hits = [||];
  }

let report t = t.rep
let draining t = t.draining
let request_drain t = Atomic.set t.drain_flag true

(* A socket that cannot be bound is closed before the error propagates. *)
let add_listener t fd setup =
  (try
     setup ();
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  t.listeners <- fd :: t.listeners

let listen_unix t path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  add_listener t fd (fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind fd (Unix.ADDR_UNIX path))

let listen_tcp ?(host = "127.0.0.1") t port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  add_listener t fd (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)))

let inject t fd =
  Mutex.lock t.inject_lock;
  t.injected <- fd :: t.injected;
  Mutex.unlock t.inject_lock

(* --- connections --- *)

let make_conn t ?(peer = "?") fd =
  Unix.set_nonblock fd;
  let stream =
    let s = Chaos.of_fd fd in
    match t.chaos with None -> s | Some fp -> Chaos.wrap fp s
  in
  let quota =
    if t.cfg.quota_burst > 0.0 then
      Some (Quota.create ~now:(Deadline.now ()) ~rate:t.cfg.quota_rate ~burst:t.cfg.quota_burst ())
    else None
  in
  {
    stream;
    reader = Wire.Reader.create ~max_payload:t.cfg.max_payload ();
    quota;
    peer;
    out = Wire.Out.create ();
    last_progress = Deadline.now ();
    alive = true;
    closing = false;
  }

type close_reason = Peer_gone | Io_error | Slow | Drained | Forced

let close_conn t conn reason =
  if conn.alive then begin
    conn.alive <- false;
    Chaos.close conn.stream;
    t.rep.closed <- t.rep.closed + 1;
    Metrics.tick m_closed;
    (match reason with
    | Slow ->
        t.rep.slow_closed <- t.rep.slow_closed + 1;
        Metrics.tick m_slow_closed;
        Flight.point "serve.slow_client" ~note:conn.peer
    | Io_error ->
        t.rep.io_closed <- t.rep.io_closed + 1;
        Flight.point "serve.conn_io_error" ~note:conn.peer
    | Forced -> t.rep.drain_forced <- t.rep.drain_forced + 1
    | Peer_gone | Drained -> ())
  end

(* Pending output starts the slow-client clock when it stops being
   empty. *)
let start_output conn =
  if Wire.Out.is_empty conn.out then conn.last_progress <- Deadline.now ()

let send_reply conn reply =
  if conn.alive then begin
    start_output conn;
    Wire.Out.add conn.out (Wire.Reply reply)
  end

(* Flush as much pending output as the socket (and the chaos policy)
   accepts, in one write of every pending byte.  A zero-byte write is a
   stall: no progress, no error — the slow-client timeout decides its
   fate. *)
let flush_conn t conn =
  let out = conn.out in
  if conn.alive && not (Wire.Out.is_empty out) then begin
    match Chaos.write conn.stream (Wire.Out.bytes out) (Wire.Out.pos out) (Wire.Out.length out) with
    | 0 -> ()
    | n ->
        Wire.Out.drop out n;
        conn.last_progress <- Deadline.now ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t conn Io_error
  end;
  if conn.alive && conn.closing && Wire.Out.is_empty out then close_conn t conn Drained

(* --- request handling --- *)

let breaker_wire t =
  match Retry.breaker_health (Buffer_pool.retry_engine (Index_file.pool t.idx)) with
  | Retry.Breaker_closed -> Wire.B_closed
  | Retry.Breaker_open { cooldown_left } -> Wire.B_open { cooldown_left }
  | Retry.Breaker_half_open -> Wire.B_half_open

let health_of t conn =
  let mc = Index_file.mmap_counters t.idx in
  let mget f = match mc with Some c -> f c | None -> 0 in
  {
    Wire.h_conns = List.length (List.filter (fun c -> c.alive) t.conns);
    h_draining = t.draining;
    h_generation = Superblock.generation (Index_file.superblock t.idx);
    h_breaker = breaker_wire t;
    h_quota_tokens =
      (match conn.quota with
      | None -> Float.infinity
      | Some q -> Quota.tokens q ~now:(Deadline.now ()));
    h_backend = Index_file.read_backend t.idx;
    h_mmap_served = mget (fun c -> c.Prt_storage.Mmap_pager.c_windows_served);
    h_mmap_crc_skipped = mget (fun c -> c.Prt_storage.Mmap_pager.c_crc_skipped);
    h_mmap_fallbacks = mget (fun c -> c.Prt_storage.Mmap_pager.c_fallbacks);
  }

let shed t conn ~id ~code ~retry_after_ms detail =
  (match code with
  | Wire.E_overloaded ->
      t.rep.shed_overload <- t.rep.shed_overload + 1;
      Metrics.tick m_shed_overload;
      Flight.point "serve.shed_overload" ~note:detail
  | Wire.E_quota ->
      t.rep.shed_quota <- t.rep.shed_quota + 1;
      Metrics.tick m_shed_quota;
      Flight.point "serve.shed_quota" ~note:detail
  | Wire.E_deadline ->
      t.rep.shed_deadline <- t.rep.shed_deadline + 1;
      Metrics.tick m_shed_deadline;
      Flight.point "serve.shed_deadline" ~note:detail
  | Wire.E_draining ->
      t.rep.shed_draining <- t.rep.shed_draining + 1;
      Metrics.tick m_shed_draining
  | Wire.E_too_large -> t.rep.too_large <- t.rep.too_large + 1
  | Wire.E_malformed ->
      t.rep.malformed <- t.rep.malformed + 1;
      Metrics.tick m_malformed);
  send_reply conn (Wire.Error { id; code; retry_after_ms; detail })

(* The hit buffers for an [n]-window batch: the array grows to the
   largest batch seen and is reused, so a batch's answer must be written
   out before the next batch runs. *)
let hits_for t n =
  let have = Array.length t.hits in
  if n > have then begin
    let old = t.hits in
    t.hits <- Array.init n (fun i -> if i < have then old.(i) else Rtree.hits_make ())
  end;
  t.hits

let run_query t conn ~id ~deadline windows =
  let t0 = Unix.gettimeofday () in
  let n = Array.length windows in
  let hits = hits_for t n in
  match Qexec.run_into ~jobs:(max 1 t.cfg.jobs) ?deadline t.exec windows ~into:hits with
  | () ->
      let size = Wire.results_payload_size hits n in
      if size > t.cfg.max_payload then
        shed t conn ~id ~code:Wire.E_too_large ~retry_after_ms:0.0
          (Printf.sprintf "a reply of %d payload bytes exceeds the frame cap of %d" size
             t.cfg.max_payload)
      else begin
        for i = 0 to n - 1 do
          let matched = (Rtree.hits_stats hits.(i)).Rtree.matched in
          t.rep.matched <- t.rep.matched + matched;
          Metrics.add m_matched matched
        done;
        t.rep.served <- t.rep.served + 1;
        t.rep.windows <- t.rep.windows + n;
        Metrics.tick m_served;
        Metrics.add m_windows n;
        Metrics.observe m_request_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
        if conn.alive then begin
          start_output conn;
          Wire.Out.add_results conn.out ~id hits n
        end
      end
  | exception Qexec.Overloaded { in_flight; limit } ->
      shed t conn ~id ~code:Wire.E_overloaded ~retry_after_ms:t.cfg.overload_retry_ms
        (Printf.sprintf "admission control: %d in flight, limit %d" in_flight limit)

let handle_pending t { p_conn = conn; p_req; p_deadline; p_pre_drain } =
  if conn.alive then
    match p_req with
    | Wire.Health_check { id } ->
        t.rep.health_served <- t.rep.health_served + 1;
        send_reply conn (Wire.Health_status { id; health = health_of t conn })
    | Wire.Drain { id } ->
        t.rep.health_served <- t.rep.health_served + 1;
        send_reply conn (Wire.Health_status { id; health = health_of t conn })
    | Wire.Query { id; windows; _ } ->
        if t.draining && not p_pre_drain then
          shed t conn ~id ~code:Wire.E_draining
            ~retry_after_ms:(Deadline.remaining_ms t.drain_deadline)
            "server is draining"
        else if Array.length windows > t.cfg.max_windows then
          shed t conn ~id ~code:Wire.E_too_large ~retry_after_ms:0.0
            (Printf.sprintf "%d windows exceed the per-request cap of %d" (Array.length windows)
               t.cfg.max_windows)
        else begin
          let admit =
            match conn.quota with
            | None -> `Ok
            | Some q -> (
                match
                  Quota.try_take q ~now:(Deadline.now ())
                    ~cost:(float_of_int (max 1 (Array.length windows)))
                with
                | `Ok _ -> `Ok
                | `Retry_after_ms hint -> `Quota hint)
          in
          match admit with
          | `Quota hint ->
              let hint = if Float.is_finite hint then hint else 0.0 in
              shed t conn ~id ~code:Wire.E_quota ~retry_after_ms:hint "token bucket empty"
          | `Ok -> (
              match p_deadline with
              | Some d when Deadline.expired d ->
                  shed t conn ~id ~code:Wire.E_deadline ~retry_after_ms:0.0
                    "deadline expired before execution"
              | deadline -> run_query t conn ~id ~deadline windows)
        end

(* --- parsing --- *)

(* Flip the drain-in-effect bit and arm its deadline; the listener
   shutdown and buffered-frame flush happen in [begin_drain] at the
   next step. *)
let activate_drain t =
  if not t.draining then begin
    t.draining <- true;
    t.drain_deadline <- Deadline.after_ms t.cfg.drain_deadline_ms
  end

(* Parse-time admission: the queue is bounded, so a flood of pipelined
   queries is shed newest-first with a retry hint instead of growing
   the queue without limit. *)
let enqueue_parsed t conn (req : Wire.request) =
  let pre_drain = not t.draining in
  (match req with
  | Wire.Drain _ ->
      Flight.point "serve.drain_requested" ~note:conn.peer;
      request_drain t;
      (* Takes effect immediately: frames pipelined behind this one on
         any connection are post-drain. *)
      activate_drain t
  | _ -> ());
  match req with
  | Wire.Query { id; _ }
    when t.cfg.max_queue > 0 && Queue.length t.queue >= t.cfg.max_queue ->
      shed t conn ~id ~code:Wire.E_overloaded ~retry_after_ms:t.cfg.overload_retry_ms
        (Printf.sprintf "request queue full (%d)" (Queue.length t.queue))
  | _ ->
      let p_deadline =
        match req with
        | Wire.Query { deadline_ms; _ } when deadline_ms > 0 ->
            let budget = float_of_int deadline_ms in
            let budget =
              if t.cfg.max_deadline_ms > 0.0 then Float.min budget t.cfg.max_deadline_ms
              else budget
            in
            Some (Deadline.after_ms budget)
        | _ -> None
      in
      Queue.add { p_conn = conn; p_req = req; p_deadline; p_pre_drain = pre_drain } t.queue

let on_protocol_error t conn err =
  (* One typed reply about what was wrong, then close: past a framing
     error the stream is unsynchronized and nothing after it can be
     trusted. *)
  Flight.point "serve.malformed" ~note:(Format.asprintf "%a" Wire.pp_proto_error err);
  shed t conn ~id:0 ~code:Wire.E_malformed ~retry_after_ms:0.0
    (Format.asprintf "%a" Wire.pp_proto_error err);
  conn.closing <- true

let rec parse_loop t conn =
  if conn.alive && not conn.closing then
    match Wire.Reader.next conn.reader with
    | `Msg (Wire.Request req) ->
        enqueue_parsed t conn req;
        parse_loop t conn
    | `Msg (Wire.Reply _) ->
        on_protocol_error t conn (Wire.Bad_payload "reply kind sent to a server")
    | `Need_more -> ()
    | `Error e -> on_protocol_error t conn e

let read_conn t conn =
  match Chaos.read conn.stream t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
      (* EOF; mid-frame it is a client disconnect, not a server error. *)
      if Wire.Reader.buffered conn.reader > 0 then
        Flight.point "serve.midframe_disconnect" ~note:conn.peer;
      close_conn t conn Peer_gone
  | n ->
      Wire.Reader.feed conn.reader t.scratch 0 n;
      parse_loop t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn Io_error

(* --- accept / inject --- *)

let adopt t ?peer fd =
  if List.length t.conns >= t.cfg.max_conns then begin
    (* Best-effort typed rejection; the listener backlog is not a queue
       we are willing to serve from. *)
    let frame =
      Wire.encode
        (Wire.Reply
           (Wire.Error
              {
                id = 0;
                code = Wire.E_overloaded;
                retry_after_ms = t.cfg.overload_retry_ms;
                detail = "connection limit reached";
              }))
    in
    (try ignore (Unix.single_write fd frame 0 (Bytes.length frame)) with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.rep.shed_overload <- t.rep.shed_overload + 1;
    Metrics.tick m_shed_overload
  end
  else begin
    let conn = make_conn t ?peer fd in
    t.conns <- conn :: t.conns;
    t.rep.accepted <- t.rep.accepted + 1;
    Metrics.tick m_accepted;
    Flight.point "serve.accept" ~note:conn.peer
  end

let accept_ready t lfd =
  match Unix.accept lfd with
  | fd, addr ->
      let peer =
        match addr with
        | Unix.ADDR_UNIX p -> if p = "" then "unix" else p
        | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      in
      adopt t ~peer fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> ()

let drain_injected t =
  let fds =
    Mutex.lock t.inject_lock;
    let fds = t.injected in
    t.injected <- [];
    Mutex.unlock t.inject_lock;
    List.rev fds
  in
  List.iter (fun fd -> adopt t ~peer:"injected" fd) fds

(* --- drain --- *)

let begin_drain t =
  activate_drain t;
  t.drain_started <- true;
  Flight.point "serve.drain_begin";
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  (* Bytes already received deserve a typed answer: parse what is
     buffered so pipelined requests get E_draining replies (flushed
     below) instead of a silent close. *)
  List.iter (fun conn -> parse_loop t conn) t.conns

let finish t ~forced =
  List.iter
    (fun conn ->
      if conn.alive then
        close_conn t conn (if forced && not (Wire.Out.is_empty conn.out) then Forced else Drained))
    t.conns;
  t.conns <- [];
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  t.finished <- true;
  Flight.point "serve.drain_end" ~arg:(if forced then 1 else 0)

(* --- the loop --- *)

let check_slow t =
  let now = Deadline.now () in
  List.iter
    (fun conn ->
      if
        conn.alive
        && (not (Wire.Out.is_empty conn.out))
        && t.cfg.write_timeout_ms > 0.0
        && (now -. conn.last_progress) *. 1000.0 > t.cfg.write_timeout_ms
      then close_conn t conn Slow)
    t.conns

let step t ~timeout =
  if t.finished then false
  else begin
    drain_injected t;
    if Atomic.get t.drain_flag && not t.drain_started then begin_drain t;
    let rfds =
      (if t.draining then [] else t.listeners)
      @ List.filter_map
          (fun c -> if c.alive && not (c.closing || t.draining) then Some (Chaos.fd c.stream) else None)
          t.conns
    in
    let wfds =
      List.filter_map
        (fun c -> if c.alive && not (Wire.Out.is_empty c.out) then Some (Chaos.fd c.stream) else None)
        t.conns
    in
    let readable, writable =
      if rfds = [] && wfds = [] then ([], [])
      else
        match Unix.select rfds wfds [] timeout with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    List.iter (fun lfd -> if List.mem lfd readable then accept_ready t lfd) t.listeners;
    List.iter
      (fun conn ->
        if conn.alive && not conn.closing && List.mem (Chaos.fd conn.stream) readable then
          read_conn t conn)
      t.conns;
    (* Execute everything parsed so far: pipelined requests behind an
       expensive batch see their deadlines re-checked at pop time. *)
    while not (Queue.is_empty t.queue) do
      handle_pending t (Queue.pop t.queue)
    done;
    List.iter
      (fun conn ->
        if conn.alive && (List.mem (Chaos.fd conn.stream) writable || not (Wire.Out.is_empty conn.out))
        then flush_conn t conn)
      t.conns;
    check_slow t;
    t.conns <- List.filter (fun c -> c.alive) t.conns;
    if t.draining && t.drain_started then begin
      let idle =
        Queue.is_empty t.queue && List.for_all (fun c -> Wire.Out.is_empty c.out) t.conns
      in
      if idle then finish t ~forced:false
      else if Deadline.expired t.drain_deadline then finish t ~forced:true
    end;
    not t.finished
  end

let run ?(step_timeout = 0.05) t =
  while step t ~timeout:step_timeout do
    ()
  done;
  t.rep

let pp_report ppf r =
  Fmt.pf ppf
    "accepted=%d closed=%d served=%d windows=%d matched=%d health=%d shed(overload=%d quota=%d \
     deadline=%d draining=%d too-large=%d) malformed=%d slow-closed=%d io-closed=%d \
     drain-forced=%d"
    r.accepted r.closed r.served r.windows r.matched r.health_served r.shed_overload r.shed_quota
    r.shed_deadline r.shed_draining r.too_large r.malformed r.slow_closed r.io_closed
    r.drain_forced
