(* The workloads by name. *)

let all =
  [
    (Serve_point.name, Serve_point.run);
    (Ingest_mixed.name, Ingest_mixed.run);
  ]

(* Run one workload; fills in the end-to-end metrics every workload
   shares.  [cfg.dir] is removed afterwards, also when the run raises. *)
let run (cfg : Bench.config) =
  let run = List.assoc cfg.Bench.workload all in
  (* Measured runs leave the library's own telemetry off. *)
  if Prt_obs.Metrics.collecting () || Prt_obs.Trace.enabled () then
    failwith "Prt_obs metrics collection or a Trace sink is on";
  let r = Bench.result () in
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect ~finally:(fun () -> Bench.remove_tree cfg.dir) (fun () -> run cfg r);
  Bench.reduce_samples r;
  Bench.set r "ok_ratio" (1.0 -. Bench.fail_ratio r);
  r
