(* The traced run's span recorder.  Spans carry a name, start and end
   (monotonic nanoseconds), the index of their parent span (-1 for
   none) and a request id.  They live in preallocated arrays — opening
   and closing a span allocates nothing — and are written out as Chrome
   trace events when the run ends.  Deliberately independent of the
   library's own tracing, so that work on the library's tracing cannot
   change what the benchmark measures. *)

type t = {
  names : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  rid : int array;
  mutable n : int;
  mutable dropped : int;
}

let create ~names ~capacity =
  let cap = max 1 capacity in
  {
    names;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    rid = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

(* Open a span of name index [name] at [start]; returns its index, or
   -1 when the recorder is full (closing -1 is a no-op). *)
let open_ t ~name ~parent ~rid ~start =
  if t.n >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- start;
    t.parent.(i) <- parent;
    t.rid.(i) <- rid;
    t.n <- i + 1;
    i
  end

let close t i ~stop = if i >= 0 then t.stop.(i) <- stop

let record t ~name ~parent ~rid ~start ~stop = close t (open_ t ~name ~parent ~rid ~start) ~stop

(* Durations (ns) of every span named [name]. *)
let durations t ~name =
  let s = Samples.create t.n in
  for i = 0 to t.n - 1 do
    if t.name.(i) = name then Samples.add s (t.stop.(i) - t.start.(i))
  done;
  s

(* Spans written out per run; the rest are counted as "unwritten". *)
let write_limit = 100_000

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.n > 0 then t.start.(0) else 0 in
      let n = min t.n write_limit in
      output_string oc "{\"traceEvents\":[";
      for i = 0 to n - 1 do
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"rid\":%d}}"
          (if i = 0 then "" else ",")
          t.names.(t.name.(i))
          (Clock.us (t.start.(i) - t0))
          (Clock.us (t.stop.(i) - t.start.(i)))
          i t.parent.(i) t.rid.(i)
      done;
      Printf.fprintf oc "\n],\"dropped\":%d,\"unwritten\":%d}\n" t.dropped (t.n - n))
