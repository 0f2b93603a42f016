(* A preallocated sample buffer: [add] stores into a fixed array and
   never allocates, so the timed loops can record every latency.  The
   loops stop when it is full.  [interrupted] counts the reads recorded
   with their CPU time because the host interrupted them. *)

type t = { a : int array; mutable n : int; mutable interrupted : int }

let create capacity = { a = Array.make (max 1 capacity) 0; n = 0; interrupted = 0 }
let count t = t.n
let full t = t.n >= Array.length t.a

let add t v =
  if t.n < Array.length t.a then begin
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1
  end

(* Record a read's latency: its wall time, or its CPU time when the host
   interrupted it (see [Clock.interrupted]). *)
let add_read t ~wall_ns =
  if Clock.interrupted ~wall_ns then begin
    t.interrupted <- t.interrupted + 1;
    add t (Clock.read_cpu_ns ())
  end
  else add t wall_ns

(* The samples from index [from] on, sorted. *)
let sorted ?(from = 0) t =
  let s = Array.sub t.a from (t.n - from) in
  Array.sort compare s;
  s

(* Nearest-rank percentile of a sorted array ([p] in 0..100); nan when
   empty. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    float_of_int s.(max 0 (min (n - 1) i))

let percentile t p = rank (sorted t) p

let median_float xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
