(* What every workload shares: the run configuration, the result it
   fills in, set-up repetition and the timed-loop bookkeeping. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;  (** timed-phase budget *)
  trace : bool;  (** the traced run: spans on, per-layer metrics out *)
  scale : float;  (** multiplies every input size; 1.0 in measured runs *)
  dir : string;  (** scratch directory for index files and stores, removed at exit *)
}

type result = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;  (** metric name -> value *)
  samples : (string, float list) Hashtbl.t;  (** repeated measurements, reduced by median *)
  mutable notes : string list;  (** human-readable diagnostics, newest first *)
}

let result () =
  {
    attempted = 0;
    failed = 0;
    values = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    notes = [];
  }

let set r name v = Hashtbl.replace r.values name v
let get r name = Hashtbl.find_opt r.values name
let add r name v = set r name (Option.value (get r name) ~default:0.0 +. v)
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

(* Record one repetition of a measurement (a set-up phase time). *)
let sample r name v =
  Hashtbl.replace r.samples name (v :: Option.value (Hashtbl.find_opt r.samples name) ~default:[])

(* Fold every repeated measurement into its median. *)
let reduce_samples r =
  Hashtbl.iter (fun name vs -> set r name (Samples.median_float (Array.of_list vs))) r.samples

let scaled cfg n = max 1 (int_of_float (Float.round (float_of_int n *. cfg.scale)))

(* Time [f ()] in nanoseconds. *)
let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () - t0)

let fail r n = r.failed <- r.failed + n
let fail_ratio r = float_of_int r.failed /. float_of_int (max 1 r.attempted)

(* One timed slice: its operations, elapsed time and p50 latency (us).
   A slice's samples are those [lat] gained during it.  Slices are a
   diagnostic: they show how the host's speed drifted over the phase. *)
type slice = { ops : int; elapsed_ns : int; samples : int; p50 : float }

let slice lat ~from ~ops ~elapsed_ns =
  let s = Samples.sorted ~from lat in
  { ops; elapsed_ns; samples = Array.length s; p50 = Samples.rank s 50.0 /. 1e3 }

let rate s = float_of_int s.ops /. Clock.s s.elapsed_ns

(* p99.9 has at least ten samples beyond it from 10,000 samples on. *)
let p999_min_samples = 10_000

(* A timed phase's metrics, each over the whole phase: [ops_per_s] is
   its operations over its time, [p50_us] and [p999_us] are percentiles
   of all its samples.  The host's speed swings by up to 1.5x for
   seconds at a time; a whole-phase figure moves in proportion to the
   time spent slow, while a median over a few slices jumps between the
   fast and the slow level.  The per-slice figures are printed. *)
let slice_metrics r ~prefix lat slices =
  let label = if prefix = "" then "" else "traced " in
  let show f = String.concat " " (List.map (fun s -> Printf.sprintf "%.4g" (f s)) slices) in
  note r "%sslices: p50_us %s | ops_per_s %s | samples %s" label
    (show (fun s -> s.p50))
    (show rate)
    (show (fun s -> float_of_int s.samples));
  note r "%s%d of %d reads interrupted by the host, recorded with their CPU time" label
    lat.Samples.interrupted (Samples.count lat);
  add r "reads" (float_of_int (Samples.count lat));
  add r "reads.interrupted" (float_of_int lat.Samples.interrupted);
  let total k = Option.value (get r k) ~default:0.0 in
  set r "host.interrupted_pct" (100.0 *. total "reads.interrupted" /. Float.max 1.0 (total "reads"));
  if Samples.count lat < p999_min_samples then
    note r "%s%d samples: fewer than ten beyond p99.9" label (Samples.count lat);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 slices in
  let sorted = Samples.sorted lat in
  set r (prefix ^ "p50_us") (Samples.rank sorted 50.0 /. 1e3);
  set r (prefix ^ "p999_us") (Samples.rank sorted 99.9 /. 1e3);
  set r (prefix ^ "ops_per_s")
    (float_of_int (sum (fun s -> s.ops)) /. Clock.s (sum (fun s -> s.elapsed_ns)))

let file_bytes path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let dir_bytes path =
  Array.fold_left (fun acc f -> acc + file_bytes (Filename.concat path f)) 0 (Sys.readdir path)

(* Payload bytes per stored entry: the paper's 36-byte record. *)
let entry_bytes = Prt_rtree.Entry.size

(* Slices per timed phase of the deadline-driven workloads. *)
let slices = 5

(* Latency samples a phase of [seconds] can hold at up to [rate]
   operations per second; each workload passes 2.5-4x its own rate.  A
   full buffer ends the phase early (with a note). *)
let phase_capacity ~rate seconds = int_of_float (seconds *. rate) + 1

(* Set-ups per run; [setup_s] is their median.  The ~1 s set-ups of one
   run ranged over +-20 %; the median of five moves far less. *)
let setup_count = 5

(* One set-up [f ()] from a collected heap; its time is a [setup_s]
   sample.  The process's peak resident set is reset first, so that
   [record_peak_rss] after the timed phase covers one set-up and the
   timed phase, not the set-ups before or the checks after. *)
let setup r f =
  Gc.compact ();
  Host.reset_peak_rss ();
  let st, ns = timed f in
  sample r "setup_s" (Clock.s ns);
  note r "set-up: %.3f s" (Clock.s ns);
  st

(* Read [peak_rss_mb]: call it right after a timed phase, before the
   answer checks build their own structures. *)
let record_peak_rss r = sample r "peak_rss_mb" (Host.peak_rss_mb ())

(* Set up [setup_count] times, tearing down all but the last, which is
   returned; [setup_s] is the median. *)
let setups r ~setup:f ~teardown =
  let rec go k =
    let st = setup r f in
    if k >= setup_count then st
    else begin
      teardown st;
      go (k + 1)
    end
  in
  go 1

let overhead r =
  let g k = Option.value (get r k) ~default:nan in
  set r "trace.overhead_p50_us" (g "traced.p50_us" -. g "p50_us");
  set r "trace.overhead_pct" (100.0 *. (g "ops_per_s" -. g "traced.ops_per_s") /. g "ops_per_s")

(* Run one timed phase, [f ()] returning its operation count; records
   the host steal over it.  Returns the count and the elapsed ns. *)
let timed_phase r ~label f =
  let steal0 = Host.steal_ticks () in
  let ops, elapsed = timed f in
  let steal = Host.steal_ticks () - steal0 in
  add r "host.steal_ticks" (float_of_int steal);
  note r "%stimed: %d ops in %.3f s, %d ticks of host steal" label ops (Clock.s elapsed) steal;
  (ops, elapsed)

(* The timed phase of a workload that runs until a deadline.
   [phase ~traced ~deadline lat] runs the closed loop until the
   monotonic clock passes [deadline] (or [lat] fills) and returns the
   operations done.  The budget is split into [slices] consecutive
   slices, all recording into one latency buffer.  Untraced for the
   whole budget; in the traced run, untraced then traced for half the
   budget each, so their difference is the tracing overhead. *)
let phases cfg r ~rate phase =
  let run ~traced ~seconds ~prefix =
    let per_slice = seconds /. float_of_int slices in
    let lat = Samples.create (phase_capacity ~rate seconds) in
    Gc.compact ();
    let measured =
      List.init slices (fun _ ->
          let from = Samples.count lat in
          let ops, elapsed =
            timed_phase r ~label:(if traced then "traced " else "") (fun () ->
                phase ~traced ~deadline:(Clock.now () + int_of_float (per_slice *. 1e9)) lat)
          in
          slice lat ~from ~ops ~elapsed_ns:elapsed)
    in
    if Samples.full lat then note r "phase ended early: latency buffer full";
    slice_metrics r ~prefix lat measured
  in
  if not cfg.trace then run ~traced:false ~seconds:cfg.seconds ~prefix:""
  else begin
    run ~traced:false ~seconds:(cfg.seconds /. 2.0) ~prefix:"";
    run ~traced:true ~seconds:(cfg.seconds /. 2.0) ~prefix:"traced.";
    overhead r
  end

(* Where the traced run writes its spans. *)
let trace_dir = ".perfbench-traces"

let write_spans cfg r spans =
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" cfg.workload cfg.seed) in
  Spans.write_chrome spans path;
  note r "spans written to %s" path
