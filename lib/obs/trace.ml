(* Spans on the flight recorder's rings.

   [with_span] records a Begin carrying the span's arguments and an End
   on the calling domain's ring.  While metrics collection is on it
   snapshots the dense counter array at the begin and attaches the
   non-zero deltas to the end, so every span carries exactly the I/O
   (pager reads/writes/allocs, cache hits/misses, ...) that happened
   inside it.  Each domain owns its ring, so spans may be opened on any
   domain. *)

let enabled () = Metrics.collecting ()

let finish name since =
  match since with
  | None -> Flight.end_span name
  | Some since ->
      let deltas =
        List.filter_map
          (fun (k, d) -> if d = 0 then None else Some (k, Json.Int d))
          (Metrics.counter_deltas ~since)
      in
      Flight.end_span ~args:deltas name

let with_span ?(args = []) name f =
  let since = if Metrics.collecting () then Some (Metrics.counter_values ()) else None in
  Flight.begin_span ~args name;
  match f () with
  | v ->
      finish name since;
      v
  | exception e ->
      (* The end event is recorded on any exit, so spans stay balanced
         even when a phase raises (e.g. an injected Io_error surviving
         the retry budget). *)
      let bt = Printexc.get_raw_backtrace () in
      finish name since;
      Printexc.raise_with_backtrace e bt

(* --- span summaries --- *)

type span_stats = {
  span_name : string;
  calls : int;
  total_us : float;
  io : (string * int) list; (* summed end-event integer values, inclusive of children *)
}

let summary () =
  let order = ref [] in
  let agg : (string, span_stats ref) Hashtbl.t = Hashtbl.create 16 in
  let record name dur args =
    let cell =
      match Hashtbl.find_opt agg name with
      | Some c -> c
      | None ->
          let c = ref { span_name = name; calls = 0; total_us = 0.0; io = [] } in
          Hashtbl.replace agg name c;
          order := name :: !order;
          c
    in
    let ints = List.filter_map (fun (k, v) -> match v with Json.Int n -> Some (k, n) | _ -> None) args in
    let io =
      List.fold_left
        (fun io (k, n) ->
          let rec bump = function
            | [] -> [ (k, n) ]
            | (k', n') :: rest -> if k = k' then (k', n' + n) :: rest else (k', n') :: bump rest
          in
          bump io)
        !cell.io ints
    in
    cell := { !cell with calls = !cell.calls + 1; total_us = !cell.total_us +. dur; io }
  in
  List.iter
    (fun (_, evs) ->
      (* One ring is one domain, so its spans nest. *)
      let stack = ref [] in
      List.iter
        (fun e ->
          match e.Flight.fe_kind with
          | Flight.Begin -> stack := e :: !stack
          | Flight.End -> (
              match !stack with
              | b :: rest when b.Flight.fe_name = e.Flight.fe_name ->
                  stack := rest;
                  record e.fe_name (float_of_int (e.fe_ts - b.fe_ts)) e.fe_args
              | _ ->
                  (* Unpaired end (ring overflow ate the begin): count
                     the call, attribute no time. *)
                  record e.fe_name 0.0 e.fe_args)
          | Flight.Point | Flight.Fail -> ())
        evs)
    (Flight.events ());
  List.rev_map (fun name -> !(Hashtbl.find agg name)) !order
