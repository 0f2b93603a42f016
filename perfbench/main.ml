(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR]

   Runs one workload closed-loop on this thread and prints its
   metrics, the JSON result last.  perfbench/run.py builds and calls
   it; see perfbench/README.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let dir = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME serve-point | ingest-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed-phase budget");
      ("--trace", Arg.Set_int trace, "0|1 the traced run (per-layer metrics)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory, removed at exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  if not (List.mem_assoc !workload Perfbench.Workloads.all) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let dir =
    if !dir <> "" then !dir else Printf.sprintf ".perfbench-work-%d" (Unix.getpid ())
  in
  let cfg =
    {
      Perfbench.Bench.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      scale = 1.0;
      dir;
    }
  in
  let r = Perfbench.Workloads.run cfg in
  if not (Perfbench.Report.print ~trace:cfg.trace r) then exit 1
