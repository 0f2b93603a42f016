(* The event recorder: a fixed-size per-domain ring of recent events,
   kept cheap enough to leave on, and the only event store of the
   observability layer.

   Every domain writes only its own ring (reached through
   [Domain.DLS]), so recording is lock-free and one event costs one
   small record.  Spans ({!Trace} and [begin_span]/[end_span]), points
   and failures share the rings.  When something fails ([failure]: a
   [Corrupt_page], a kill-point crash, an fsck salvage) the rings hold
   the last few thousand events of every domain — spans, retries,
   breaker trips, quarantine adds, commit publishes — and can be dumped
   as a Chrome-trace JSON postmortem; a traced run dumps them the same
   way when it ends.

   Ring lifecycle: a domain's ring is created on its first event and
   parked in a dead-ring queue when the domain exits.  The most recent
   [retain_dead] dead rings keep their events — a postmortem usually
   needs exactly the history of workers that just finished — and a new
   domain only recycles the oldest dead ring once the queue exceeds
   that bound, so memory stays bounded across the many short-lived
   domains a Qexec workload spawns without erasing fresh history.  A
   ring holds [capacity] events unless its domain [reserve]s more: a
   traced run does so for the domain that drives it.

   Dump-on-failure is off unless a dump path is configured (the
   [PRT_FLIGHTREC] environment variable, or [set_dump_path]); a
   corruption-sweep test raising thousands of [Corrupt_page]s pays only
   the ring writes. *)

type kind = Begin | End | Point | Fail

type event = {
  fe_kind : kind;
  fe_name : string;
  fe_ts : int; (* microseconds since process start; an int keeps the record unboxed *)
  fe_arg : int; (* integer payload (page id, attempt, generation); min_int = none *)
  fe_note : string; (* short free-form detail; "" = none *)
  fe_args : (string * Json.t) list; (* span arguments on a Begin, counter deltas on an End *)
}

let no_arg = min_int

type ring = {
  mutable r_dom : int;
  mutable r_ev : event array; (* its length is the capacity; replaced only under [lock] *)
  mutable r_pos : int; (* next write index *)
  mutable r_len : int; (* valid events *)
  mutable r_total : int; (* events ever written to this ring *)
}

let dummy =
  { fe_kind = Point; fe_name = ""; fe_ts = 0; fe_arg = no_arg; fe_note = ""; fe_args = [] }

(* One wall-clock epoch for the whole process, so every domain's events
   land on the same time axis. *)
let epoch = Unix.gettimeofday ()
let now_us () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e6)

let lock = Mutex.create ()
let capacity = 2048
let rings : ring list ref = ref [] (* every ring: live domains + dead *)
let dead : ring Queue.t = Queue.create () (* exited domains' rings, oldest first *)

(* Dead rings kept intact before the oldest gets recycled. *)
let retain_dead = 8

(* Autodump target: [failure] writes a postmortem here when set. *)
let dump_to : string option ref = ref (Sys.getenv_opt "PRT_FLIGHTREC")
let set_dump_path p = Mutex.protect lock (fun () -> dump_to := p)
let dump_path () = !dump_to

let ring_key =
  Domain.DLS.new_key (fun () ->
      let dom = (Domain.self () :> int) in
      let r =
        Mutex.protect lock (fun () ->
            if Queue.length dead > retain_dead then begin
              (* Recycle the oldest dead ring, forgetting its events;
                 the [retain_dead] newest keep their history dumpable. *)
              let r = Queue.pop dead in
              r.r_dom <- dom;
              r.r_pos <- 0;
              r.r_len <- 0;
              r.r_total <- 0;
              r
            end
            else begin
              let r =
                { r_dom = dom; r_ev = Array.make capacity dummy; r_pos = 0; r_len = 0; r_total = 0 }
              in
              rings := r :: !rings;
              r
            end)
      in
      Domain.at_exit (fun () -> Mutex.protect lock (fun () -> Queue.push r dead));
      r)

(* The ring's events, oldest first.  Indices are taken modulo the
   length of the array read here, so a racy read never leaves it. *)
let ring_events r =
  let ev = r.r_ev in
  let cap = Array.length ev in
  let len = min r.r_len cap in
  let start = (r.r_pos - len + cap) mod cap in
  List.init len (fun i -> ev.((start + i) mod cap))

let reserve n =
  let r = Domain.DLS.get ring_key in
  if n > Array.length r.r_ev then begin
    let ev = Array.make n dummy in
    List.iteri (fun i e -> ev.(i) <- e) (ring_events r);
    Mutex.protect lock (fun () ->
        r.r_ev <- ev;
        r.r_pos <- r.r_len)
  end

let push kind name arg note args =
  let r = Domain.DLS.get ring_key in
  let ev = r.r_ev in
  ev.(r.r_pos) <-
    { fe_kind = kind; fe_name = name; fe_ts = now_us (); fe_arg = arg; fe_note = note; fe_args = args };
  r.r_pos <- (r.r_pos + 1) mod Array.length ev;
  if r.r_len < Array.length ev then r.r_len <- r.r_len + 1;
  r.r_total <- r.r_total + 1

let begin_span ?(arg = no_arg) ?(args = []) name = push Begin name arg "" args
let end_span ?(arg = no_arg) ?(args = []) name = push End name arg "" args
let point ?(arg = no_arg) ?(note = "") name = push Point name arg note []

(* --- reading the rings --- *)

(* Snapshot of every ring, oldest event first.  Reading another
   domain's ring while it writes is racy by design (this is a
   postmortem tool); a torn read can only misreport the ~1 newest event
   of a still-running domain, never corrupt memory. *)
let events () =
  Mutex.protect lock (fun () ->
      List.rev_map (fun r -> (r.r_dom, ring_events r)) (List.filter (fun r -> r.r_len > 0) !rings))

let total_recorded () =
  Mutex.protect lock (fun () -> List.fold_left (fun acc r -> acc + r.r_total) 0 !rings)

let dropped () =
  Mutex.protect lock (fun () -> List.fold_left (fun acc r -> acc + (r.r_total - r.r_len)) 0 !rings)

let clear () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun r ->
          r.r_pos <- 0;
          r.r_len <- 0;
          r.r_total <- 0)
        !rings)

(* --- Chrome trace-event export --- *)

(* Begin/End pairs within one ring become "X" complete events (a
   duration bar on the domain's track) carrying the values of both
   halves; unmatched halves — the partner fell off the ring, or the
   span never finished before a crash — and Point/Fail events become
   instants.  "X" events carry no stack discipline, so a multi-domain
   dump stays a valid trace no matter how the rings interleave. *)
let event_json ~ph ~cat ?dur ?(extra = []) dom e =
  let args =
    (if e.fe_arg = no_arg then [] else [ ("arg", Json.Int e.fe_arg) ])
    @ (if e.fe_note = "" then [] else [ ("note", Json.Str e.fe_note) ])
    @ e.fe_args @ extra
  in
  Json.Obj
    ([
       ("name", Json.Str e.fe_name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Float (float_of_int e.fe_ts));
     ]
    @ (match dur with Some d -> [ ("dur", Json.Float (float_of_int d)) ] | None -> [])
    @ [ ("pid", Json.Int 1); ("tid", Json.Int dom) ]
    @ (if ph = "i" then [ ("s", Json.Str "t") ] else [])
    @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ])

(* (ts, json) pairs for one ring's events, pairing spans with a stack. *)
let ring_chrome dom evs =
  let out = ref [] in
  let stack = ref [] in
  let unmatched half e =
    out := (e.fe_ts, event_json ~ph:"i" ~cat:"flight" ~extra:[ ("unmatched", Json.Str half) ] dom e) :: !out
  in
  List.iter
    (fun e ->
      match e.fe_kind with
      | Begin -> stack := e :: !stack
      | End -> (
          match !stack with
          | b :: rest when b.fe_name = e.fe_name ->
              stack := rest;
              out :=
                ( b.fe_ts,
                  event_json ~ph:"X" ~cat:"flight" ~dur:(e.fe_ts - b.fe_ts) ~extra:e.fe_args dom b )
                :: !out
          | _ -> unmatched "end" e)
      | Point -> out := (e.fe_ts, event_json ~ph:"i" ~cat:"flight" dom e) :: !out
      | Fail -> out := (e.fe_ts, event_json ~ph:"i" ~cat:"failure" dom e) :: !out)
    evs;
  (* Spans still open (crash, or End fell off the ring): keep them
     visible as instants at their begin time. *)
  List.iter (unmatched "begin") !stack;
  !out

let chrome_events () =
  let per_ring = List.concat_map (fun (dom, evs) -> ring_chrome dom evs) (events ()) in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) per_ring)

let document evs = Json.Obj [ ("traceEvents", Json.List evs); ("displayTimeUnit", Json.Str "ms") ]
let chrome_json () = document (chrome_events ())

let dump path =
  let evs = chrome_events () in
  Json.to_file path (document evs);
  List.length evs

(* A failure is recorded like any event, then triggers the autodump if
   a path is configured.  Dump errors are swallowed: the recorder must
   never turn a failing operation into a different failure. *)
let failure ?(arg = no_arg) ?(note = "") name =
  push Fail name arg note [];
  match !dump_to with
  | None -> ()
  | Some path -> ( try ignore (dump path : int) with _ -> ())
