(* Every benchmark timing reads this clock: CLOCK_MONOTONIC in
   nanoseconds.  [Unix.gettimeofday] moves in 1 us steps, which moved a
   ~9 us median in ~10 % jumps. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let us ns = float_of_int ns /. 1e3
let s ns = float_of_int ns /. 1e9

(* Reads the host interrupted.  A read is interrupted when its wall
   time exceeds the thread's CPU time over it by more than 50 us with no
   voluntary context switch: the thread was runnable but off the CPU —
   hypervisor steal (which this CPU time excludes) or another task.
   Such a read is recorded with its CPU time instead of its wall time;
   it stays in the percentiles, and a change that makes slow reads
   slower still shows.  A read that blocks switches voluntarily and
   keeps its wall time. *)

external thread_usage : int array -> unit = "perfbench_thread_usage" [@@noalloc]

let usage_before = [| 0; 0 |]
let usage_after = [| 0; 0 |]
let interrupted_ns = 50_000

(* Call just before a read's first clock reading... *)
let read_begins () = thread_usage usage_before

(* ... and this after its last, with the read's wall time: whether the
   host interrupted the read. *)
let interrupted ~wall_ns =
  thread_usage usage_after;
  wall_ns - (usage_after.(0) - usage_before.(0)) > interrupted_ns
  && usage_after.(1) = usage_before.(1)

(* The thread's CPU time over the read, once [interrupted] has run. *)
let read_cpu_ns () = usage_after.(0) - usage_before.(0)
