(* Smoke verifier for the bench emitters (the @bench-smoke alias): each
   argument must be a well-formed JSON file.  A Chrome trace file (an
   object with "traceEvents") must have globally monotone timestamps
   (the writer merges the per-domain tracks with a stable sort), B/E
   span events that balance *per track* (tid), and "X" complete events
   with a non-negative dur;
   a BENCH_*.json must carry a non-empty "rows" array of objects.
   Exits 1 with a message on any violation, so the dune rule fails
   loudly. *)

module Json = Prt_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let get name o = match Json.member name o with Some v -> v | None -> Json.Null

let check_trace path j =
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> fail "%s: no traceEvents array" path
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      let name = match get "name" e with Json.Str s -> s | _ -> fail "%s: unnamed event" path in
      let ts =
        match Json.to_number (get "ts" e) with
        | Some t -> t
        | None -> fail "%s: event %s has no numeric ts" path name
      in
      if ts < !last_ts then fail "%s: timestamps not monotone at %s" path name;
      last_ts := ts;
      let tid =
        match Json.to_number (get "tid" e) with Some t -> int_of_float t | None -> 0
      in
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match get "ph" e with
      | Json.Str "B" -> Hashtbl.replace stacks tid (name :: stack)
      | Json.Str "E" -> (
          match stack with
          | top :: rest when top = name -> Hashtbl.replace stacks tid rest
          | top :: _ -> fail "%s: tid %d: E %s closes B %s" path tid name top
          | [] -> fail "%s: tid %d: E %s without matching B" path tid name)
      | Json.Str "X" -> (
          match Json.to_number (get "dur" e) with
          | Some d when d >= 0. -> ()
          | Some _ -> fail "%s: X %s has negative dur" path name
          | None -> fail "%s: X %s has no numeric dur" path name)
      | Json.Str "i" -> ()
      | _ -> fail "%s: event %s has bad ph" path name)
    events;
  Hashtbl.iter
    (fun tid stack ->
      match stack with [] -> () | top :: _ -> fail "%s: tid %d: unclosed span %s" path tid top)
    stacks;
  Printf.printf "%s: %d events, spans balanced\n" path (List.length events)

(* Serving-tier rows carry a fixed shape: mode/workload labels, the
   client-shape ints, and internally consistent counters (a request is
   answered, retried away, or rejected — never lost). *)
let check_serve_row path row =
  let str name =
    match Json.member name row with
    | Some (Json.Str s) -> s
    | _ -> fail "%s: serve row missing string field %S" path name
  in
  let num name =
    match Option.bind (Json.member name row) Json.to_number with
    | Some v -> v
    | None -> fail "%s: serve row missing numeric field %S" path name
  in
  let mode = str "mode" in
  ignore (str "workload");
  if not (List.mem mode [ "qps"; "quota"; "overload" ]) then
    fail "%s: serve row has unknown mode %S" path mode;
  List.iter
    (fun f -> if num f < 0.0 then fail "%s: serve row has negative %S" path f)
    [
      "concurrency"; "batch"; "entries"; "queries"; "sent"; "ok"; "matched"; "shed";
      "quota_rejected"; "retries"; "gave_up";
    ];
  if num "concurrency" < 1.0 || num "batch" < 1.0 then
    fail "%s: serve row has empty client shape" path;
  if num "ok" +. num "gave_up" > num "sent" then
    fail "%s: serve row loses requests: ok + gave_up > sent" path

(* LSM-ingestion rows come in three phases with a shared core: counts
   never negative, the recovered entry count always equal to the
   dataset size (losing an acknowledged insert is the failure mode the
   subsystem exists to rule out), write amplification at least 1 (the
   WAL alone writes every acked byte), and a clean shutdown replaying
   into zero reclaimed orphans. *)
let check_ingest_row path row =
  let str name =
    match Json.member name row with
    | Some (Json.Str s) -> s
    | _ -> fail "%s: ingest row missing string field %S" path name
  in
  let num name =
    match Option.bind (Json.member name row) Json.to_number with
    | Some v -> v
    | None -> fail "%s: ingest row missing numeric field %S" path name
  in
  let phase = str "phase" in
  List.iter
    (fun f -> if num f < 0.0 then fail "%s: ingest row has negative %S" path f)
    [ "n"; "buffer"; "entries" ];
  if num "entries" <> num "n" then
    fail "%s: ingest %s row lost entries: %g of %g" path phase (num "entries") (num "n");
  match phase with
  | "ingest" ->
      if not (List.mem (str "sync") [ "always"; "never" ]) then
        fail "%s: ingest row has unknown sync mode %S" path (str "sync");
      if num "write_amp" < 1.0 then
        fail "%s: ingest row has write_amp < 1 (%g)" path (num "write_amp");
      if num "merges" < 1.0 || num "components" < 1.0 then
        fail "%s: ingest row shows no merge activity" path
  | "concurrent" ->
      if num "readers" < 1.0 then fail "%s: concurrent row has no readers" path;
      if num "reader_queries" < 1.0 then
        fail "%s: concurrent row completed no queries" path
  | "replay" ->
      if num "orphans" <> 0.0 then
        fail "%s: replay row reclaimed %g orphans after a clean shutdown" path
          (num "orphans");
      if num "replayed" < 0.0 || num "components" < 1.0 then
        fail "%s: replay row malformed" path
  | p -> fail "%s: ingest row has unknown phase %S" path p

let check_bench path j =
  let experiment = match Json.member "experiment" j with Some (Json.Str s) -> s | _ -> "" in
  match Json.member "rows" j with
  | Some (Json.List rows) ->
      if rows = [] then fail "%s: empty rows" path;
      List.iter
        (function
          | Json.Obj _ as row ->
              if experiment = "serve" then check_serve_row path row
              else if experiment = "ingest" then check_ingest_row path row
          | _ -> fail "%s: non-object row" path)
        rows;
      Printf.printf "%s: %d rows%s\n" path (List.length rows)
        (match experiment with
        | "serve" -> " (serve shape ok)"
        | "ingest" -> " (ingest shape ok)"
        | _ -> "")
  | _ -> fail "%s: no rows array" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then fail "usage: check_json FILE.json ...";
  List.iter
    (fun path ->
      let j = try Json.of_file path with Json.Parse_error m -> fail "%s: %s" path m in
      match Json.member "traceEvents" j with
      | Some _ -> check_trace path j
      | None -> check_bench path j)
    args
