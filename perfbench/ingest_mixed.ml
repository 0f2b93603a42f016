(* ingest-mixed: writes beside reads on the same storage and R-tree
   layers.  150k TIGER-like rectangles go into a [Prt.Lsm] store with
   default settings (1,024-entry buffer, merges inline, external loader
   and lib/extsort above 50k entries) and WAL sync [`Never]: per-insert
   fsync would measure the virtual disk (~100 us per fsync, insert
   p99.9 2.5-3.3 ms run to run) rather than the merge path.  Set-up
   inserts the first third, then closes and reopens the store, which
   replays the WAL.  The timed phase inserts the rest in generation
   order, with one window query (0.01 % of the bounding box) per 8
   inserts and one delete of a uniformly chosen older live entry per 16
   inserts; no id is reused.  Merges, tombstones, the WAL and the
   manifest do most of the work, so a change that trades write cost for
   read cost shows on both sides.

   The op log is fixed by the seed and runs whole, so every cycle
   (set-up, timed phase, checks) repeats the same work and every
   deterministic metric comes out identical in each.  Each cycle is one
   slice of the timed phase; the timings are taken over all cycles. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Lsm = Prt_logmethod.Lsm

let name = "ingest-mixed"

(* Op-log encoding: the kind in the low two bits, its argument (an
   entry index or a window index) above. *)
let op_insert = 0
let op_delete = 1
let op_query = 2

type inputs = {
  data : Entry.t array;
  first : int;  (** entries inserted during set-up *)
  windows : Rect.t array;
  ops : int array;  (** the timed phase, in order *)
}

let inputs (cfg : Bench.config) =
  let n = Bench.scaled cfg 150_000 in
  let data = Inputs.map ~n in
  let first = n / 3 in
  let inserts = n - first in
  let windows =
    Inputs.squares ~count:(max 1 (inserts / 8)) ~area_fraction:1e-4
      ~world:(Prt_workloads.Queries.world_of data) ~seed:cfg.seed
  in
  (* The delete victims belong to the fixed population, like the map:
     they decide how the tombstone set grows, which every query copies,
     and victims drawn per seed moved the query p50 from 90 to 151 us. *)
  let rng = Rng.create (Inputs.population_seed + 1) in
  let live = Array.make n 0 and nlive = ref 0 in
  let add i =
    live.(!nlive) <- i;
    incr nlive
  in
  for i = 0 to first - 1 do
    add i
  done;
  let ops = Array.make (inserts + (inserts / 8) + (inserts / 16)) 0 and nops = ref 0 in
  let emit kind arg =
    ops.(!nops) <- kind lor (arg lsl 2);
    incr nops
  in
  for k = 0 to inserts - 1 do
    emit op_insert (first + k);
    add (first + k);
    if (k + 1) mod 8 = 0 then emit op_query ((k + 1) / 8 - 1);
    if (k + 1) mod 16 = 0 then begin
      (* An older entry: any live one but the insert just made. *)
      let j = Rng.int rng (!nlive - 1) in
      let victim = live.(j) in
      live.(j) <- live.(!nlive - 1);
      decr nlive;
      emit op_delete victim
    end
  done;
  { data; first; windows; ops = Array.sub ops 0 !nops }

(* Liveness after replaying the op log up to (not including) [upto];
   [on_query q alive] runs at each query op before it. *)
let replay inp ~upto ~on_query =
  let alive = Array.init (Array.length inp.data) (fun i -> i < inp.first) in
  for o = 0 to upto - 1 do
    let op = inp.ops.(o) in
    let arg = op lsr 2 in
    match op land 3 with
    | 0 -> alive.(arg) <- true
    | 1 -> alive.(arg) <- false
    | _ -> on_query arg alive
  done;
  alive

let span_names = [| "lsm.insert"; "lsm.merge"; "lsm.delete"; "lsm.query" |]

(* Query results are tallied through one callback allocated up front. *)
type tally = { mutable c : int; mutable s : int }

(* Untraced cycles per run at most: the latency buffer holds this many
   cycles' queries. *)
let max_cycles = 16

let run (cfg : Bench.config) r =
  let dir = Filename.concat cfg.dir "lsm" in
  (* Sizes only: each set-up generates its own inputs, and the checks at
     the end generate them again, so no copy is held across cycles. *)
  let nops, nq =
    let inp = inputs cfg in
    (Array.length inp.ops, Array.length inp.windows)
  in
  let answers = Oracle.answers nq in
  let spans = Spans.create ~names:span_names ~capacity:(if cfg.trace then nops else 1) in
  (* Query latencies: every untraced cycle's, and the traced cycle's. *)
  let lat = Samples.create (nq * max_cycles) and lat_traced = Samples.create nq in
  let tally = { c = 0; s = 0 } in
  let f e =
    tally.c <- tally.c + 1;
    tally.s <- tally.s + Oracle.mix e.Entry.id
  in
  let failed = ref 0 and attempted = ref 0 in
  (* Each cycle is one slice, newest first. *)
  let untraced = ref [] and traced_cycle = ref [] and untraced_ns = ref 0 in
  let components = ref 0 and traced_queries = ref 0 in
  (* Set-up: generate, populate the first third, close, reopen (which
     replays the WAL), and a warm-up pass of the first queries. *)
  let setup () =
    Bench.setup r (fun () ->
        let inp, gen_ns = Bench.timed (fun () -> inputs cfg) in
        Bench.sample r "workloads.generate_s" (Clock.s gen_ns);
        Bench.remove_tree dir;
        let t = Lsm.create ~wal_sync:`Never dir in
        let (), pop_ns =
          Bench.timed (fun () ->
              for i = 0 to inp.first - 1 do
                Lsm.insert t inp.data.(i)
              done)
        in
        Bench.sample r "lsm.populate_s" (Clock.s pop_ns);
        let populated = Lsm.stats t in
        Lsm.close t;
        let t, reopen_ns = Bench.timed (fun () -> Lsm.open_ ~wal_sync:`Never dir) in
        Bench.sample r "lsm.reopen_s" (Clock.s reopen_ns);
        Bench.set r "lsm.replayed" (float_of_int (Lsm.stats t).Lsm.s_replayed);
        for q = 0 to min nq 256 - 1 do
          ignore (Lsm.query t inp.windows.(q) ~f:ignore)
        done;
        (inp, t, populated))
  in
  let teardown t =
    Lsm.close t;
    Bench.remove_tree dir
  in
  (* One timed pass over the op log on a freshly set-up store, then the
     end state against the model. *)
  let cycle ~traced =
    let inp, t, populated = setup () in
    Fun.protect ~finally:(fun () -> teardown t) @@ fun () ->
    let lat = if traced then lat_traced else lat in
    let from = Samples.count lat in
    let st0 = Lsm.stats t in
    let leaves = ref 0 in
    Gc.compact ();
    let ops, elapsed =
      Bench.timed_phase r ~label:(if traced then "traced " else "") (fun () ->
          for o = 0 to nops - 1 do
            let op = Array.unsafe_get inp.ops o in
            let arg = op lsr 2 in
            let kind = op land 3 in
            if kind = op_insert then begin
              let b0 = if traced then Lsm.buffer_size t else 0 in
              let t0 = Clock.now () in
              (try Lsm.insert t (Array.unsafe_get inp.data arg) with _ -> incr failed);
              let t1 = Clock.now () in
              (* Merges run inline: an insert that merged leaves the buffer
                 emptier than it found it. *)
              if traced then
                Spans.record spans
                  ~name:(if Lsm.buffer_size t <= b0 then 1 else 0)
                  ~parent:(-1) ~rid:o ~start:t0 ~stop:t1
            end
            else if kind = op_delete then begin
              let t0 = Clock.now () in
              (match Lsm.delete t (Array.unsafe_get inp.data arg) with
              | true -> ()
              | false | (exception _) -> incr failed);
              if traced then Spans.record spans ~name:2 ~parent:(-1) ~rid:o ~start:t0 ~stop:(Clock.now ())
            end
            else begin
              if traced then begin
                components := !components + List.length (Lsm.components t);
                incr traced_queries
              end;
              tally.c <- 0;
              tally.s <- 0;
              Clock.read_begins ();
              let t0 = Clock.now () in
              match Lsm.query t (Array.unsafe_get inp.windows arg) ~f with
              | stats ->
                  let t1 = Clock.now () in
                  Samples.add_read lat ~wall_ns:(t1 - t0);
                  if traced then Spans.record spans ~name:3 ~parent:(-1) ~rid:o ~start:t0 ~stop:t1;
                  leaves := !leaves + stats.Rtree.leaf_visited;
                  Oracle.note answers arg tally.c tally.s
              | exception _ -> incr failed
            end
          done;
          nops)
    in
    Bench.record_peak_rss r;
    attempted := !attempted + ops;
    let sl = Bench.slice lat ~from ~ops ~elapsed_ns:elapsed in
    if traced then traced_cycle := [ sl ]
    else begin
      untraced := sl :: !untraced;
      untraced_ns := !untraced_ns + elapsed
    end;
    (* The deterministic metrics: identical in every cycle. *)
    let st = Lsm.stats t in
    let inserts = Array.length inp.data - inp.first in
    Bench.set r "leaf_reads_per_query" (float_of_int !leaves /. float_of_int nq);
    Bench.set r "lsm.merges" (float_of_int (st.Lsm.s_merges - st0.Lsm.s_merges));
    Bench.set r "lsm.bytes_written_per_insert"
      (float_of_int (st.Lsm.s_bytes_written - st0.Lsm.s_bytes_written) /. float_of_int inserts);
    Bench.set r "lsm.tombstones" (float_of_int st.Lsm.s_tombstones);
    Bench.set r "write_amp"
      (float_of_int (populated.Lsm.s_bytes_written + st.Lsm.s_bytes_written)
      /. float_of_int (populated.Lsm.s_bytes_acked + st.Lsm.s_bytes_acked));
    let alive = replay inp ~upto:nops ~on_query:(fun _ _ -> ()) in
    let live = Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive in
    Bench.set r "space_amp"
      (float_of_int (Bench.dir_bytes dir) /. float_of_int (live * Bench.entry_bytes));
    if Lsm.count t <> live then begin
      incr failed;
      Bench.note r "Lsm.count %d, model %d" (Lsm.count t) live
    end;
    tally.c <- 0;
    tally.s <- 0;
    let world = Prt_workloads.Queries.world_of inp.data in
    ignore (Lsm.query t world ~f);
    incr attempted;
    if (tally.c, tally.s) <> Oracle.brute inp.data alive world then begin
      incr failed;
      Bench.note r "whole-world query: %d results, model %d" tally.c live
    end
  in
  Fun.protect ~finally:(fun () -> Bench.remove_tree dir) (fun () ->
      (* At least [Bench.setup_count] cycles, so that setup_s is a
         median, and more until the budget is spent or [max_cycles] are
         done.  The traced run makes one untraced and one traced
         cycle. *)
      if cfg.trace then begin
        cycle ~traced:false;
        cycle ~traced:true
      end
      else begin
        let spent () = Clock.s !untraced_ns >= cfg.seconds in
        while
          let n = List.length !untraced in
          n < Bench.setup_count || ((not (spent ())) && n < max_cycles)
        do
          cycle ~traced:false
        done;
        if not (spent ()) then
          Bench.note r "phase ended early: %d cycles fill the latency buffer" max_cycles
      end);
  Bench.slice_metrics r ~prefix:"" lat (List.rev !untraced);
  if cfg.trace then begin
    Bench.slice_metrics r ~prefix:"traced." lat_traced !traced_cycle;
    Bench.overhead r;
    let p name = Spans.durations spans ~name in
    let merges = p 1 in
    Bench.set r "lsm.insert_us" (Samples.percentile (p 0) 50.0 /. 1e3);
    Bench.set r "lsm.merge_ms" (Samples.percentile merges 50.0 /. 1e6);
    Bench.set r "lsm.merge_s" (Clock.s (Array.fold_left ( + ) 0 (Samples.sorted merges)));
    Bench.set r "lsm.delete_us" (Samples.percentile (p 2) 50.0 /. 1e3);
    Bench.set r "lsm.components_per_query"
      (float_of_int !components /. float_of_int (max 1 !traced_queries));
    Bench.write_spans cfg r spans
  end;
  (* A deterministic sample of the recorded answers, by brute force over
     the live set the op log implies at that query. *)
  let inp = inputs cfg in
  ignore
    (replay inp ~upto:nops ~on_query:(fun q alive ->
         if q mod 64 = 0 && answers.Oracle.cnt.(q) >= 0 then
           if
             (answers.Oracle.cnt.(q), answers.Oracle.sum.(q))
             <> Oracle.brute inp.data alive inp.windows.(q)
           then failed := !failed + answers.Oracle.times.(q)));
  r.Bench.attempted <- r.Bench.attempted + !attempted;
  Bench.fail r (!failed + answers.Oracle.unstable)
