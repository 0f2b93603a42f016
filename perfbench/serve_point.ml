(* serve-point: the network tier.  One connection sends requests of 8
   near-point windows (each 1e-6 of the bounding box, centred on map
   segments drawn in proportion to the map's density) to a [Server]
   with the default config, over 167k TIGER-like rectangles (~1,550
   index pages, inside the 4,096-page pool).  The server adopts one end
   of a socketpair; this thread sends a request, calls [Server.step]
   until the server has answered or rejected it, and receives the reply
   — client and server on one thread, so no cross-vCPU wake-up sits in
   the round trip.  It is the only workload that runs lib/serve,
   Qexec and a bulk-loaded index file. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Index_file = Prt_rtree.Index_file
module Server = Prt_serve.Server
module Client = Prt_serve.Client
module Wire = Prt_serve.Wire

let name = "serve-point"
let batch = 8 (* windows per request: prt load's default *)

(* Distinct requests: the timed loop cycles through them, so p99.9
   covers the ~16 costliest rather than the 2 costliest of 2,048. *)
let requests cfg = Bench.scaled cfg 16_384

(* Requests the warm-up pass and the executor pass run. *)
let probed cfg = min (requests cfg) (Bench.scaled cfg 2048)

let inputs (cfg : Bench.config) =
  let data = Inputs.map ~n:(Bench.scaled cfg 167_000) in
  let half = sqrt (1e-6 *. Rect.area (Prt_workloads.Queries.world_of data)) /. 2.0 in
  let nreq = requests cfg in
  let windows =
    Array.map
      (fun e ->
        let cx, cy = Rect.center e.Entry.rect in
        Rect.make ~xmin:(cx -. half) ~ymin:(cy -. half) ~xmax:(cx +. half) ~ymax:(cy +. half))
      (Inputs.stratified_entries ~count:(nreq * batch) ~seed:cfg.seed data)
  in
  let requests =
    Array.init nreq (fun k ->
        Wire.Query { id = k + 1; deadline_ms = 0; windows = Array.sub windows (k * batch) batch })
  in
  (data, windows, requests)

type state = {
  idx : Index_file.t;
  srv : Server.t;
  client : Client.t;
  windows : Rect.t array;
  requests : Wire.request array;
}

(* Requests the server has answered or rejected. *)
let answered (r : Server.report) =
  r.served + r.shed_overload + r.shed_quota + r.shed_deadline + r.shed_draining + r.too_large
  + r.malformed

let max_steps = 100_000

(* Requests per second a timed phase has room for. *)
let max_rate = 25_000.0
let span_names =
  [| "serve.request"; "serve.send"; "serve.step"; "serve.recv"; "qexec.batch"; "rtree.batch"; "rtree.query" |]

(* One request round trip.  The reply is small enough to sit whole in
   the socket buffer once the answering step has flushed it, so the
   blocking receive returns at once; the client end carries a receive
   timeout in case it does not. *)
let exchange st spans ~traced ~lat k =
  let rep = Server.report st.srv in
  let before = answered rep in
  Clock.read_begins ();
  let t0 = Clock.now () in
  let rid = k + 1 in
  let parent = if traced then Spans.open_ spans ~name:0 ~parent:(-1) ~rid ~start:t0 else -1 in
  Client.send st.client (Array.unsafe_get st.requests k);
  let t1 = Clock.now () in
  let steps = ref 0 and step_start = ref t1 in
  while answered rep = before do
    if !steps = max_steps then failwith "the server did not answer";
    step_start := Clock.now ();
    ignore (Server.step st.srv ~timeout:0.0);
    incr steps
  done;
  let t2 = Clock.now () in
  let reply = Client.recv st.client in
  let t3 = Clock.now () in
  Samples.add_read lat ~wall_ns:(t3 - t0);
  if traced then begin
    Spans.record spans ~name:1 ~parent ~rid ~start:t0 ~stop:t1;
    Spans.record spans ~name:2 ~parent ~rid ~start:!step_start ~stop:t2;
    Spans.record spans ~name:3 ~parent ~rid ~start:t2 ~stop:t3;
    Spans.close spans parent ~stop:t3
  end;
  reply

let rec hits_sum acc = function [] -> acc | e :: tl -> hits_sum (acc + Oracle.mix e.Entry.id) tl

(* Record a reply's answers; false when it is not a complete answer to
   request [k]. *)
let check answers k = function
  | Ok (Wire.Results { id; results }) when id = k + 1 && Array.length results = batch ->
      let ok = ref true in
      for j = 0 to batch - 1 do
        let qr = Array.unsafe_get results j in
        (match qr.Wire.qr_completeness with Wire.C_complete -> () | _ -> ok := false);
        Oracle.note answers ((k * batch) + j) (List.length qr.Wire.qr_hits) (hits_sum 0 qr.Wire.qr_hits)
      done;
      !ok
  | _ -> false

let connect idx =
  let srv = Server.create ~config:Server.default_config idx in
  let server_end, client_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float client_end Unix.SO_RCVTIMEO 10.0;
  Server.inject srv server_end;
  (srv, Client.of_fd client_end)

let teardown path st =
  Client.close st.client;
  Server.request_drain st.srv;
  let n = ref 0 in
  while Server.step st.srv ~timeout:0.0 && !n < max_steps do
    incr n
  done;
  Indexed.close st.idx path

let run (cfg : Bench.config) r =
  let path = Filename.concat cfg.dir "serve-point.idx" in
  let nreq = requests cfg and probed = probed cfg in
  let answers = Oracle.answers (nreq * batch) in
  let spans =
    Spans.create ~names:span_names
      ~capacity:
        (if cfg.trace then
           (4 * Bench.phase_capacity ~rate:max_rate (cfg.seconds /. 2.0)) + ((2 + batch) * probed)
         else 1)
  in
  let failed_requests = ref 0 and sent = ref 0 in
  let attempt st ~traced ~lat k =
    incr sent;
    match check answers k (exchange st spans ~traced ~lat k) with
    | true -> ()
    | false -> incr failed_requests
    | exception e ->
        incr failed_requests;
        Bench.note r "request %d raised: %s" (k + 1) (Printexc.to_string e)
  in
  let setup () =
    let (data, windows, requests), gen_ns = Bench.timed (fun () -> inputs cfg) in
    Bench.sample r "workloads.generate_s" (Clock.s gen_ns);
    let idx = Indexed.create r path data in
    let srv, client = connect idx in
    let st = { idx; srv; client; windows; requests } in
    (* The warm-up pass: the first [probed] requests once, which also
       sizes the frames on the wire. *)
    let before = Indexed.mmap_counters idx in
    let lat = Samples.create probed in
    let req_bytes = ref 0 and reply_bytes = ref 0 in
    let (), warm_ns =
      Bench.timed (fun () ->
          for k = 0 to probed - 1 do
            req_bytes := !req_bytes + Bytes.length (Wire.encode (Wire.Request requests.(k)));
            incr sent;
            let res = exchange st spans ~traced:false ~lat k in
            (match res with
            | Ok reply -> reply_bytes := !reply_bytes + Bytes.length (Wire.encode (Wire.Reply reply))
            | Error _ -> ());
            if not (check answers k res) then incr failed_requests
          done)
    in
    Bench.sample r "index_file.warmup_s" (Clock.s warm_ns);
    Bench.set r "serve.request_bytes" (float_of_int !req_bytes /. float_of_int probed);
    Bench.set r "serve.reply_bytes" (float_of_int !reply_bytes /. float_of_int probed);
    Indexed.record_mmap r idx ~before ~queries:(probed * batch);
    st
  in
  (* The input rectangles are not kept through the timed phase: the
     oracle regenerates them. *)
  let st = Bench.setups r ~setup ~teardown:(teardown path) in
  Fun.protect ~finally:(fun () -> teardown path st) @@ fun () ->
  let phase ~traced ~deadline lat =
    let i = ref 0 and t = ref (Clock.now ()) in
    while !t < deadline && not (Samples.full lat) do
      attempt st ~traced ~lat (!i mod nreq);
      incr i;
      t := Clock.now ()
    done;
    !i
  in
  Bench.phases cfg r ~rate:max_rate phase;
  Bench.record_peak_rss r;
  (* The executor the server runs ([Qexec.run ~jobs:1]) and the plain
     descent, on the first [probed] requests' windows: their answers are
     checked too, the executor's statistics give the per-query counts,
     and in the traced run their times split the answering step and
     time each window's descent. *)
  let exec = Index_file.executor st.idx in
  let tree = Index_file.tree st.idx in
  let hits = Rtree.hits_make () in
  let leaves = ref 0 and internal = ref 0 and results = ref 0 in
  for k = 0 to probed - 1 do
    let ws = Array.sub st.windows (k * batch) batch in
    let t0 = Clock.now () in
    let out = Qexec.run ~jobs:1 exec ws in
    let t1 = Clock.now () in
    let descent = if cfg.trace then Spans.open_ spans ~name:5 ~parent:(-1) ~rid:(k + 1) ~start:t1 else -1 in
    for j = 0 to batch - 1 do
      let q0 = Clock.now () in
      Rtree.query_into tree ws.(j) ~into:hits;
      let q1 = Clock.now () in
      if cfg.trace then Spans.record spans ~name:6 ~parent:descent ~rid:(k + 1) ~start:q0 ~stop:q1;
      Oracle.note answers ((k * batch) + j) (Rtree.hits_length hits) (Oracle.hits_checksum hits)
    done;
    let t2 = Clock.now () in
    if cfg.trace then begin
      Spans.record spans ~name:4 ~parent:(-1) ~rid:(k + 1) ~start:t0 ~stop:t1;
      Spans.close spans descent ~stop:t2
    end;
    Array.iteri
      (fun j (es, stats) ->
        leaves := !leaves + stats.Rtree.leaf_visited;
        internal := !internal + stats.Rtree.internal_visited;
        results := !results + stats.Rtree.matched;
        Oracle.note answers ((k * batch) + j) (List.length es) (hits_sum 0 es))
      out
  done;
  Indexed.record_descents r ~queries:(probed * batch) ~leaves:!leaves ~internal:!internal
    ~results:!results ~capacity:(Rtree.capacity tree);
  let c = Indexed.mmap_counters st.idx in
  Bench.set r "storage.mmap_fallbacks" (float_of_int c.Prt_storage.Mmap_pager.c_fallbacks);
  if cfg.trace then begin
    let p50 name = Samples.percentile (Spans.durations spans ~name) 50.0 /. 1e3 in
    let send = p50 1 and step = p50 2 and recv = p50 3 and qexec = p50 4 and rtree = p50 5 in
    Bench.set r "serve.send_us" send;
    Bench.set r "serve.step_us" step;
    Bench.set r "serve.recv_us" recv;
    Bench.set r "qexec.batch_us" qexec;
    Bench.set r "rtree.batch_us" rtree;
    Bench.set r "serve.self_us" (step -. qexec);
    Bench.set r "qexec.self_us" (qexec -. rtree);
    let query = Spans.durations spans ~name:6 in
    Bench.set r "rtree.query_us" (Samples.percentile query 50.0 /. 1e3);
    Bench.set r "rtree.query_p999_us" (Samples.percentile query 99.9 /. 1e3);
    Bench.write_spans cfg r spans
  end;
  (* A request fails when it raised, was rejected, or any of its windows
     was answered wrongly on any attempt. *)
  let data, _, _ = inputs cfg in
  let reference = Oracle.reference_tree data in
  r.Bench.attempted <- r.Bench.attempted + !sent + (2 * probed);
  Bench.fail r
    (!failed_requests
    + Oracle.wrong ~group:batch answers ~expect:(fun j ->
          Oracle.reference_answer reference st.windows.(j)))
