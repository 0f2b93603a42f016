(* The serving-tier chaos matrix, run by `dune build @serve-smoke` (and
   under @runtest-long; the bench half of the alias runs the serve
   experiment against its committed baseline in bench/dune).

   Five sections, every one ending with a no-leaked-pins check:

   - chaos matrix: servers under a seeded Failpoint schedule (peer
     resets, short reads, stalled and torn writes) driven over injected
     socketpairs by scripted clients — queries, health checks, a
     garbage frame, a mid-frame disconnect.  Nothing may escape a
     connection, and a drain must always terminate.
   - kill-point sweep: a crash budget of 0..5 physical socket writes,
     one reply per write; the simulated process death mid-reply must
     leave no snapshot pins and an index that still answers
     oracle-correct queries.
   - drain under load: a real Unix-socket server on its own domain,
     drained while a multi-domain load generator is mid-replay; every
     client request must be accounted for (answered, retried away, or
     typed-rejected) with zero protocol errors.
   - quota retries: a refilling per-connection bucket small enough that
     every batch but the first is rejected at least once; the load
     generator's hint-driven backoff must land every request.
   - allocation bound: after warm-up, the [Server.step] calls that
     answer one request allocate the same number of minor words for a
     miss-only request as for one with at least 100 hits, and fewer
     than 1,000 (client send and receive excluded). *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Failpoint = Prt_storage.Failpoint
module Superblock = Prt_storage.Superblock
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Wire = Prt_serve.Wire
module Server = Prt_serve.Server
module Client = Prt_serve.Client
module Load_gen = Prt_serve.Load_gen

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("serve_smoke: FAIL: " ^ s); exit 1) fmt

let random_rect rng =
  let x0 = Rng.float rng 1.0 and y0 = Rng.float rng 1.0 in
  let w = Rng.float rng 0.2 and h = Rng.float rng 0.2 in
  Rect.make ~xmin:x0 ~ymin:y0 ~xmax:(Float.min 1.0 (x0 +. w)) ~ymax:(Float.min 1.0 (y0 +. h))

let make_entries ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun i -> Entry.make (random_rect rng) i)

let make_windows ~n ~seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> random_rect rng)

let with_index ~n ~seed f =
  let path = Filename.temp_file "prt_serve_smoke" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let es = make_entries ~n ~seed in
  let idx = Index_file.create path ~build:(fun pool -> Prtree.load pool es) in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  let r = f idx es in
  let pins = Superblock.pin_count (Index_file.superblock idx) in
  if pins <> 0 then fail "leaked %d snapshot pin(s)" pins;
  r

let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prt_smoke_%d_%d.sock" (Unix.getpid ()) !k)

(* --- scripted socketpair clients (the injected, listenerless path) --- *)

type client = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  mutable eof : bool;
  mutable replies : int;
  mutable errors : int;  (* typed Wire.Error replies among them *)
}

let connect srv =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.inject srv a;
  Unix.set_nonblock b;
  { fd = b; reader = Wire.Reader.create (); eof = false; replies = 0; errors = 0 }

let send c frame =
  try ignore (Unix.write c.fd frame 0 (Bytes.length frame))
  with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let poll c =
  let buf = Bytes.create 65536 in
  (try
     let rec go () =
       match Unix.read c.fd buf 0 (Bytes.length buf) with
       | 0 -> c.eof <- true
       | r ->
           Wire.Reader.feed c.reader buf 0 r;
           go ()
     in
     go ()
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> c.eof <- true);
  let rec drain () =
    match Wire.Reader.next c.reader with
    | `Msg (Wire.Reply (Wire.Error _)) ->
        c.errors <- c.errors + 1;
        c.replies <- c.replies + 1;
        drain ()
    | `Msg (Wire.Reply _) ->
        c.replies <- c.replies + 1;
        drain ()
    | `Msg (Wire.Request _) -> fail "server sent a request kind"
    | `Need_more | `Error _ -> ()
  in
  drain ()

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* --- 1. chaos matrix --- *)

let chaos_case ~seed ~rate =
  with_index ~n:250 ~seed:7 @@ fun idx _es ->
  let chaos = Failpoint.create (Failpoint.uniform ~seed ~max_consecutive:3 rate) in
  let config =
    {
      Server.default_config with
      Server.max_queue = 64;
      max_windows = 16;
      quota_rate = 50.0;
      quota_burst = 12.0;
    }
  in
  let srv = Server.create ~chaos ~config idx in
  let clients = List.init 3 (fun _ -> connect srv) in
  let qs = make_windows ~n:4 ~seed:(seed + 1) in
  List.iteri
    (fun i c ->
      for k = 0 to 5 do
        send c
          (Wire.encode
             (Wire.Request
                (Wire.Query
                   {
                     id = (i * 100) + k;
                     deadline_ms = (if k mod 3 = 0 then 5 else 0);
                     windows = qs;
                   })));
        ignore (Server.step srv ~timeout:0.0);
        poll c
      done;
      send c (Wire.encode (Wire.Request (Wire.Health_check { id = (i * 100) + 99 }))))
    clients;
  let hostile = connect srv in
  send hostile (Bytes.make 24 '\231');
  let half = connect srv in
  let frame = Wire.encode (Wire.Request (Wire.Query { id = 7; deadline_ms = 0; windows = qs })) in
  send half (Bytes.sub frame 0 (Bytes.length frame - 3));
  for _ = 1 to 60 do
    ignore (Server.step srv ~timeout:0.0);
    List.iter poll clients;
    poll hostile
  done;
  close_client half;
  Server.request_drain srv;
  let steps = ref 0 in
  while Server.step srv ~timeout:0.0 && !steps < 1000 do
    incr steps;
    List.iter poll clients
  done;
  if !steps >= 1000 then fail "drain did not terminate (seed %d rate %.2f)" seed rate;
  List.iter close_client (hostile :: clients);
  let r = Server.report srv in
  if r.Server.closed < r.Server.accepted then
    fail "chaos seed %d: %d accepted but only %d closed" seed r.Server.accepted r.Server.closed;
  let replies = List.fold_left (fun a c -> a + c.replies) 0 (hostile :: clients) in
  let sheds =
    r.Server.shed_overload + r.Server.shed_quota + r.Server.shed_deadline
    + r.Server.shed_draining
  in
  Printf.printf
    "  chaos seed=%d rate=%.2f: accepted=%d served=%d sheds=%d malformed=%d io-closed=%d \
     slow-closed=%d replies=%d\n\
     %!"
    seed rate r.Server.accepted r.Server.served sheds r.Server.malformed r.Server.io_closed
    r.Server.slow_closed replies

(* --- 2. kill-point sweep --- *)

let kill_sweep () =
  let crashes = ref 0 in
  for k = 0 to 5 do
    with_index ~n:250 ~seed:7 @@ fun idx es ->
    let chaos = Failpoint.create (Failpoint.crash_after k) in
    let srv = Server.create ~chaos idx in
    let c = connect srv in
    let qs = make_windows ~n:3 ~seed:21 in
    (* One request at a time: pipelined replies would leave in a single
       write, and budget [k] must find [k] writes before the crash. *)
    (try
       for i = 1 to 6 do
         send c (Wire.encode (Wire.Request (Wire.Query { id = i; deadline_ms = 0; windows = qs })));
         for _ = 1 to 20 do
           ignore (Server.step srv ~timeout:0.0);
           poll c
         done
       done
     with Failpoint.Simulated_crash _ ->
       incr crashes;
       (* The crash modelled process death mid-reply; the index must
          still answer oracle-correct queries, with nothing pinned
          (checked by [with_index]). *)
       let tree = Index_file.tree idx in
       Array.iter
         (fun w ->
           let expected =
             Array.to_list es
             |> List.filter (fun e -> Rect.intersects (Entry.rect e) w)
             |> List.map Entry.id |> List.sort Int.compare
           in
           let got =
             fst (Rtree.query_list tree w) |> List.map Entry.id |> List.sort Int.compare
           in
           if got <> expected then fail "post-crash query mismatch at kill point %d" k)
         qs);
    close_client c
  done;
  if !crashes = 0 then fail "no kill point fired in the sweep";
  Printf.printf "  kill points: %d of 6 write budgets crashed mid-reply, index intact after each\n%!"
    !crashes

(* --- 3. drain under load --- *)

let drain_under_load () =
  with_index ~n:2_000 ~seed:3 @@ fun idx _es ->
  let config = { Server.default_config with Server.max_queue = 1024 } in
  let srv = Server.create ~config idx in
  let path = socket_path () in
  Server.listen_unix srv path;
  let dom = Domain.spawn (fun () -> Server.run ~step_timeout:0.005 srv) in
  let qs = make_windows ~n:400 ~seed:31 in
  let cfg =
    {
      (Load_gen.default_config ~connect:(fun () -> Client.connect_unix path)) with
      Load_gen.concurrency = 3;
      batch = 4;
      max_retries = 2;
      base_backoff_ms = 1.0;
      max_backoff_ms = 5.0;
    }
  in
  let load = Domain.spawn (fun () -> Load_gen.run cfg qs) in
  Unix.sleepf 0.05;
  Server.request_drain srv;
  let stats = Domain.join load in
  let report = Domain.join dom in
  (try Sys.remove path with Sys_error _ -> ());
  if stats.Load_gen.protocol_errors <> 0 then
    fail "drain under load: %d protocol errors" stats.Load_gen.protocol_errors;
  let accounted =
    stats.Load_gen.ok + stats.Load_gen.gave_up + stats.Load_gen.rejected_deadline
    + stats.Load_gen.rejected_draining + stats.Load_gen.rejected_other
  in
  if accounted <> stats.Load_gen.sent then
    fail "drain under load: %d of %d requests unaccounted for" (stats.Load_gen.sent - accounted)
      stats.Load_gen.sent;
  Printf.printf "  drain under load: client %s\n                    server %s\n%!"
    (Format.asprintf "%a" Load_gen.pp_stats stats)
    (Format.asprintf "%a" Server.pp_report report)

(* --- 4. quota retries --- *)

let quota_retries () =
  with_index ~n:2_000 ~seed:3 @@ fun idx _es ->
  let config =
    { Server.default_config with Server.quota_rate = 2_000.0; quota_burst = 8.0 }
  in
  let srv = Server.create ~config idx in
  let path = socket_path () in
  Server.listen_unix srv path;
  let dom = Domain.spawn (fun () -> Server.run ~step_timeout:0.005 srv) in
  let qs = make_windows ~n:96 ~seed:41 in
  let cfg =
    {
      (Load_gen.default_config ~connect:(fun () -> Client.connect_unix path)) with
      Load_gen.concurrency = 2;
      batch = 8;
      max_retries = 10;
    }
  in
  let stats = Load_gen.run cfg qs in
  Server.request_drain srv;
  let report = Domain.join dom in
  (try Sys.remove path with Sys_error _ -> ());
  if stats.Load_gen.ok <> stats.Load_gen.sent then
    fail "quota retries: only %d of %d batches eventually admitted" stats.Load_gen.ok
      stats.Load_gen.sent;
  if stats.Load_gen.retries = 0 then fail "quota retries: bucket never pushed back";
  if report.Server.shed_quota = 0 then fail "quota retries: server shed nothing";
  Printf.printf "  quota retries: %d batches all admitted after %d hint-driven retries (%d shed)\n%!"
    stats.Load_gen.ok stats.Load_gen.retries report.Server.shed_quota

(* --- 5. allocation bound --- *)

let alloc_words_limit = 1_000.0

let allocation_bound () =
  with_index ~n:2_000 ~seed:3 @@ fun idx es ->
  let srv = Server.create idx in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.inject srv a;
  let client = Client.of_fd b in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let miss = Array.make 8 (Rect.make ~xmin:5.0 ~ymin:5.0 ~xmax:6.0 ~ymax:6.0) in
  let hot = make_windows ~n:8 ~seed:51 in
  let expected =
    Array.fold_left
      (fun acc w ->
        acc + Array.fold_left (fun n e -> if Rect.intersects (Entry.rect e) w then n + 1 else n) 0 es)
      0 hot
  in
  if expected < 100 then fail "allocation bound: the hot request matches only %d entries" expected;
  (* Minor words across the steps that answer one request; [Gc.minor]
     before each reading, or the counter moves in whole minor heaps. *)
  let words windows =
    Client.send client (Wire.Query { id = 1; deadline_ms = 0; windows });
    let served = (Server.report srv).Server.served in
    let total = ref 0.0 and steps = ref 0 in
    while (Server.report srv).Server.served = served do
      if !steps = 100 then fail "allocation bound: the server did not answer";
      incr steps;
      Gc.minor ();
      let w0 = Gc.minor_words () in
      ignore (Server.step srv ~timeout:0.0);
      Gc.minor ();
      total := !total +. (Gc.minor_words () -. w0)
    done;
    match Client.recv client with
    | Ok (Wire.Results { results; _ }) ->
        (!total, Array.fold_left (fun n r -> n + List.length r.Wire.qr_hits) 0 results)
    | _ -> fail "allocation bound: expected a results reply"
  in
  for _ = 1 to 20 do
    ignore (words miss);
    ignore (words hot)
  done;
  let miss_words, miss_hits = words miss and hot_words, hot_hits = words hot in
  if miss_hits <> 0 || hot_hits <> expected then
    fail "allocation bound: %d and %d hits (expected 0 and %d)" miss_hits hot_hits expected;
  if Index_file.read_backend idx <> "mmap" then
    Printf.printf "  allocation bound: skipped on the %s backend\n%!" (Index_file.read_backend idx)
  else begin
    if miss_words <> hot_words then
      fail "allocation bound: %.0f words for a miss-only request, %.0f for %d hits" miss_words
        hot_words hot_hits;
    if hot_words >= alloc_words_limit then
      fail "allocation bound: %.0f words per request (limit %.0f)" hot_words alloc_words_limit;
    Printf.printf "  allocation bound: %.0f minor words per request, with 0 or %d hits\n%!"
      hot_words hot_hits
  end

let () =
  Printf.printf "== serve smoke: chaos matrix over the network query tier ==\n%!";
  List.iter (fun rate -> List.iter (fun seed -> chaos_case ~seed ~rate) [ 1; 2; 3; 4 ])
    [ 0.1; 0.3 ];
  kill_sweep ();
  drain_under_load ();
  quota_retries ();
  allocation_bound ();
  Printf.printf "serve smoke: ok\n%!"
