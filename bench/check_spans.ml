(* Span-summary gate (the @bench-smoke alias): the span summary a traced
   bench run prints must equal a committed baseline row for row — the
   same span names, each with the same number of calls and the same I/O
   deltas.  Times are not compared: they vary with the machine.  A span
   that loses calls or deltas, vanishes or appears fails the gate, so a
   change to the tracing cannot silently drop the per-phase accounting.

   Usage:
     check_spans BASELINE OUTPUT   compare OUTPUT's summary with BASELINE
     check_spans --extract OUTPUT  print OUTPUT's summary as a baseline

   OUTPUT is the bench's stdout ("-" reads standard input); its summary
   is the table under the "== span summary ==" line.  A baseline holds
   one span per line, "name calls key=delta ...", deltas sorted by key;
   lines starting with '#' are comments. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let lines path =
  let ic =
    if path = "-" then stdin else try open_in path with Sys_error e -> fail "check_spans: %s" e
  in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)
let canonical name calls deltas = String.concat " " (name :: calls :: List.sort compare deltas)

(* The summary table's rows: span, calls, total ms, deltas. *)
let summary path =
  let rec find = function
    | [] -> fail "%s: no span summary" path
    | l :: rest -> if String.trim l = "== span summary ==" then rest else find rest
  in
  let rec rows acc = function
    | l :: rest when String.trim l <> "" -> (
        match words l with
        | name :: calls :: _ms :: deltas -> rows (canonical name calls deltas :: acc) rest
        | _ -> fail "%s: bad span summary row %S" path l)
    | _ -> List.sort compare acc
  in
  match find (lines path) with
  | _header :: _rule :: rest -> rows [] rest
  | _ -> fail "%s: truncated span summary" path

let baseline path =
  List.sort compare
    (List.filter_map
       (fun l ->
         match words l with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | name :: calls :: deltas -> Some (canonical name calls deltas)
         | _ -> fail "%s: bad baseline row %S" path l)
       (lines path))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--extract"; output ] -> List.iter print_endline (summary output)
  | [ base; output ] ->
      let want = baseline base and got = summary output in
      let missing = List.filter (fun r -> not (List.mem r got)) want in
      let extra = List.filter (fun r -> not (List.mem r want)) got in
      List.iter (Printf.eprintf "span summary: baseline row missing or changed: %s\n") missing;
      List.iter (Printf.eprintf "span summary: row not in the baseline: %s\n") extra;
      if missing <> [] || extra <> [] then
        fail "span summary differs from %s (calls and I/O deltas must match)" base;
      Printf.printf "span summary: %d rows match %s\n" (List.length got) base
  | _ -> fail "usage: check_spans BASELINE OUTPUT | check_spans --extract OUTPUT"
