(* prt — command-line tooling around the library: generate datasets,
   bulk-load persistent (file-backed) indexes, query and validate them.

     prt gen --dataset tiger -n 50000 -o roads.dat
     prt build --variant pr -i roads.dat -o roads.idx
     prt query -i roads.idx --window 0.2,0.2,0.3,0.3
     prt validate -i roads.idx
     prt audit -i roads.idx

   Data files are flat pages of 36-byte entry records with a one-page
   header; index files are crash-consistent {!Prt.Index_file} devices:
   pages 0/1 hold a shadow superblock pair carrying the R-tree metadata,
   every page ends in a checksummed trailer, and mutations commit
   atomically (see `prt fsck` for analysis and repair). *)

open Prt
open Cmdliner

(* --- the on-disk dataset format --- *)

let data_magic = 0x50524454 (* "PRDT" *)

let write_data path entries =
  let pager = Pager.create_file path in
  let header_page = Pager.alloc pager in
  let header = Page.create (Pager.page_size pager) in
  Page.set_i32 header 0 data_magic;
  Page.set_i32 header 4 (Array.length entries);
  Pager.write pager header_page header;
  let file = Entry.File.of_array pager entries in
  ignore file;
  Pager.close pager

let read_data_file path =
  let pager = Pager.open_file path in
  Fun.protect
    ~finally:(fun () -> Pager.close pager)
    (fun () ->
      (* Dataset pages carry the storage format epoch like every page;
         one of another format is named, not reported as damage. *)
      (match Page.check (Pager.read_raw pager 0) with
      | Page.Stale_epoch e ->
          failwith
            (Printf.sprintf
               "dataset format %d; this build reads format %d: regenerate it with prt gen" e
               Page.format_epoch)
      | Page.Fresh | Page.Valid _ | Page.Torn -> ());
      let header = Pager.read pager 0 in
      if Page.get_i32 header 0 <> data_magic then failwith "not a prt dataset file";
      let count = Page.get_i32 header 4 in
      let per_page = Pager.payload_size pager / Entry.size in
      let out = ref [] in
      let remaining = ref count and page = ref 1 in
      while !remaining > 0 do
        let buf = Pager.read pager !page in
        let here = min per_page !remaining in
        for i = 0 to here - 1 do
          out := Entry.read buf (i * Entry.size) :: !out
        done;
        remaining := !remaining - here;
        incr page
      done;
      Array.of_list (List.rev !out))

(* --- typed input and output errors ---

   An input that cannot be opened — a dataset file, an index, an LSM
   store: missing, unreadable, of another format, or not that kind of
   file at all — and an output file that cannot be created are reported
   by name and exit 2, a code no subcommand uses for anything else.
   Exceptions that do not describe the file are bugs and propagate. *)

let input_failure = function
  | Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
  | Failure reason | Invalid_argument reason | Pager.Corrupt_page reason -> Some reason
  | Superblock.Unsupported_format found -> Some (Superblock.unsupported_format_message found)
  | _ -> None

let refuse what path reason =
  Printf.eprintf "prt: cannot %s %s: %s\n%!" what path reason;
  exit 2

let opening what path f =
  match f () with
  | v -> v
  | exception e -> (
      match input_failure e with Some reason -> refuse what path reason | None -> raise e)

let read_data path = opening "read dataset" path (fun () -> read_data_file path)

let exits_2 doc = Cmd.Exit.info 2 ~doc :: Cmd.Exit.defaults

let dataset_exits =
  exits_2 "the dataset file could not be read: missing, unreadable, or not a dataset."

let lsm_exits =
  exits_2
    "the LSM store could not be opened: no manifest, unreadable, or written by another format."

(* A value outside the range an option accepts is a usage error, refused
   where the command line is parsed: cmdliner reports it with the
   accepted range and exits 124, before any file is touched. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative_ms =
  let parse s =
    match float_of_string_opt s with
    | Some ms when ms >= 0.0 -> Ok ms
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected milliseconds >= 0" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* The payload id of [insert] and [delete], stored as an int32. *)
let id_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= Int32.to_int Int32.min_int && n <= Int32.to_int Int32.max_int -> Ok n
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected an integer in [%ld, %ld]" s
                Int32.min_int Int32.max_int))
  in
  Arg.(
    required
    & opt (some (conv (parse, Format.pp_print_int))) None
    & info [ "id" ] ~docv:"ID" ~doc:"Payload id, a 32-bit signed integer.")

(* Comma-separated coordinates, none of them NaN: a NaN fails every
   comparison, so a NaN window would match nothing and a NaN rectangle
   written into a node would hide the entries of its whole subtree.
   Infinities are legal: -inf,-inf,inf,inf is the whole world. *)
let parse_coords ~arity ~expected make s =
  match String.split_on_char ',' s |> List.map float_of_string_opt with
  | cs when List.length cs = arity && List.for_all Option.is_some cs ->
      let cs = List.map Option.get cs in
      if List.exists Float.is_nan cs then
        Error (`Msg (Printf.sprintf "invalid value '%s', a coordinate is NaN" s))
      else Ok (make (Array.of_list cs))
  | _ -> Error (`Msg ("expected " ^ expected))

(* [exits] with cmdliner's default 124 entry replaced by one that names
   the command's own usage errors. *)
let usage_exit doc exits =
  List.map
    (fun i ->
      if Cmd.Exit.info_code i = Cmd.Exit.cli_error then Cmd.Exit.info Cmd.Exit.cli_error ~doc
      else i)
    exits

(* --- dataset generation --- *)

let dataset_kinds =
  [
    ("uniform", `Uniform);
    ("tiger", `Tiger);
    ("size", `Size);
    ("aspect", `Aspect);
    ("skewed", `Skewed);
    ("cluster", `Cluster);
  ]

let generate ~dataset ~n ~seed ~param =
  match dataset with
  | `Uniform -> Datasets.uniform_points ~n ~seed
  | `Tiger -> Tiger.generate (Tiger.default_params ~n ~seed)
  | `Size -> Datasets.size ~n ~max_side:(Option.value param ~default:0.01) ~seed
  | `Aspect -> Datasets.aspect ~n ~a:(Option.value param ~default:10.0) ~seed
  | `Skewed -> Datasets.skewed ~n ~c:(int_of_float (Option.value param ~default:5.0)) ~seed
  | `Cluster ->
      let clusters = max 1 (int_of_float (sqrt (float_of_int n))) in
      Datasets.cluster ~n_clusters:clusters ~per_cluster:(max 1 (n / clusters)) ~seed

(* --- index files --- *)

let variant_loaders =
  [
    ("pr", fun pool entries -> Prtree.load pool entries);
    ("h", fun pool entries -> Bulk.Hilbert.load_h pool entries);
    ("h4", fun pool entries -> Bulk.Hilbert.load_h4 pool entries);
    ("tgs", Bulk.Tgs.load);
    ("str", Bulk.Str.load);
  ]

let build_index ~variant:(variant, load) ~input ~output ~shadow =
  let entries = read_data input in
  let t0 = Unix.gettimeofday () in
  let idx =
    opening "create index" output (fun () ->
        Index_file.create ~shadow output ~build:(fun pool -> load pool entries))
  in
  let tree = Index_file.tree idx in
  Printf.printf "built %s index over %d rectangles in %.2fs: height %d, %d pages%s\n" variant
    (Rtree.count tree) (Unix.gettimeofday () -. t0) (Rtree.height tree)
    (Pager.num_pages (Index_file.pager idx))
    (if shadow then Printf.sprintf " (%d shadow)" (List.length (Index_file.shadow_pages idx))
     else "");
  Index_file.close idx

(* Report what superblock/journal recovery did on open (silent when the
   previous shutdown was clean). *)
let report_recovery r =
  if r.Superblock.rec_journal_pages > 0 then
    Printf.eprintf "recovery: rolled back %d journaled page(s)\n" r.Superblock.rec_journal_pages;
  if r.Superblock.rec_truncated_pages > 0 then
    Printf.eprintf "recovery: truncated %d uncommitted page(s)\n" r.Superblock.rec_truncated_pages;
  if r.Superblock.rec_slot_repaired then
    Printf.eprintf "recovery: repaired damaged superblock slot\n"

let cannot_open path reason = refuse "open index" path reason

let open_failure =
  "the index file could not be opened: missing, unreadable, not an index, or written by another \
   format"

(* [validate], [audit], [stats], [scrub] and [fsck] report a damaged
   page as a finding, exit 1; the other index subcommands refuse it. *)
let checking_exits = exits_2 (open_failure ^ ".")

let index_exits =
  exits_2 (open_failure ^ "; or a page the command read fails its checksum (torn or stale).")

(* A page the pager refuses while the command runs is named the way an
   index that cannot be opened is: "prt: cannot read index FILE:
   <reason>", exit 2. *)
let with_index ?backend path f =
  let idx = opening "open index" path (fun () -> Index_file.open_ ?backend path) in
  report_recovery (Index_file.recovery idx);
  match Fun.protect ~finally:(fun () -> Index_file.close idx) (fun () -> f idx) with
  | v -> v
  | exception Pager.Corrupt_page reason -> refuse "read index" path reason

(* The audit figures of an index's tree; on a violation, the first one
   named on stdout and exit 1. *)
let validated tree =
  match Audit.validate tree with
  | report -> report
  | exception Audit.Invalid v ->
      Printf.printf "invalid: %s\n" (Format.asprintf "%a" Audit.pp_violation v);
      exit 1

(* Read-backend selector shared by the serving commands.  [auto] maps
   the file when the platform allows and falls back to pread. *)
let backend_arg =
  Arg.(
    value
    & opt (enum [ ("auto", `Auto); ("mmap", `Mmap); ("pread", `Pread) ]) `Auto
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Read backend: $(b,mmap) scans node pages directly in a shared file mapping (no \
           syscall, no lock, no copy), $(b,pread) reads through the buffer pool, $(b,auto) \
           (default) picks mmap when the platform grants a mapping.")

(* --- commands --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let gen_cmd =
  let dataset =
    Arg.(
      value
      & opt (enum dataset_kinds) `Uniform
      & info [ "dataset"; "d" ] ~docv:"KIND"
          ~doc:("Dataset kind: " ^ doc_alts_enum dataset_kinds ^ "."))
  in
  let n =
    Arg.(value & opt (int_at_least 0) 100_000 & info [ "n" ] ~docv:"N" ~doc:"Number of rectangles.")
  in
  let param =
    Arg.(
      value
      & opt (some float) None
      & info [ "param"; "p" ] ~docv:"P"
          ~doc:
            "Family parameter: max_side in [0, 1] for size, a in [1, 1e5] for aspect (the \
             paper's largest ratio; rectangles have area 1e-6), c >= 1 for skewed (truncated to \
             an integer).")
  in
  (* The parameter's range depends on the dataset kind, so it is checked
     on the pair. *)
  let dataset_param =
    let check dataset param =
      let bad name range = `Error (true, Printf.sprintf "--param (%s) must be in %s" name range) in
      match (dataset, param) with
      | `Size, Some p when not (p >= 0.0 && p <= 1.0) -> bad "max_side" "[0, 1]"
      | `Aspect, Some a when not (a >= 1.0 && a <= Datasets.max_aspect) -> bad "a" "[1, 1e5]"
      | `Skewed, Some c when not (c >= 1.0) -> bad "c" "[1, inf)"
      | _ -> `Ok (dataset, param)
    in
    Term.(ret (const check $ dataset $ param))
  in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run (dataset, param) n seed output =
    let entries = generate ~dataset ~n ~seed ~param in
    opening "write dataset" output (fun () -> write_data output entries);
    Printf.printf "wrote %d rectangles to %s\n" (Array.length entries) output
  in
  Cmd.v
    (Cmd.info "gen"
       ~exits:
         (usage_exit
            "on command line errors, among them a negative $(b,-n) or a $(b,--param) outside \
             the range its $(b,--dataset) accepts."
            (exits_2 "the output file could not be created."))
       ~doc:"Generate a dataset file.")
    Term.(const run $ dataset_param $ n $ seed_arg $ output)

let build_cmd =
  let variants = List.map (fun (name, load) -> (name, (name, load))) variant_loaders in
  let variant =
    Arg.(
      value
      & opt (enum variants) (List.assoc "pr" variants)
      & info [ "variant"; "v" ] ~docv:"VARIANT"
          ~doc:("Index variant: " ^ doc_alts_enum variants ^ "."))
  in
  let input =
    Arg.(required & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Dataset file.")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let shadow =
    Arg.(
      value & flag
      & info [ "shadow" ]
          ~doc:
            "Also write post-image shadow copies of every committed page: the repair source for \
             $(b,prt scrub --online), at the cost of roughly doubled file size.")
  in
  let run variant input output shadow = build_index ~variant ~input ~output ~shadow in
  Cmd.v
    (Cmd.info "build"
       ~exits:
         (exits_2
            "the dataset file could not be read (missing, unreadable, or not a dataset), or the \
             index file could not be created.")
       ~doc:"Bulk-load a persistent index from a dataset file.")
    Term.(const run $ variant $ input $ output $ shadow)

let window_usage = "on command line errors, among them a NaN coordinate in $(b,--window)."

let rect_id_usage =
  "on command line errors, among them a NaN coordinate in $(b,--rect) or an $(b,--id) outside \
   the 32-bit signed range."

let window_conv =
  let parse =
    parse_coords ~arity:4 ~expected:"x0,y0,x1,y1" (fun c ->
        Rect.of_corners (c.(0), c.(1)) (c.(2), c.(3)))
  in
  let print ppf r =
    Format.fprintf ppf "%g,%g,%g,%g" (Rect.xmin r) (Rect.ymin r) (Rect.xmax r) (Rect.ymax r)
  in
  Arg.conv (parse, print)

let query_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let window =
    Arg.(
      required
      & opt (some window_conv) None
      & info [ "window"; "w" ] ~docv:"X0,Y0,X1,Y1"
          ~doc:"Query window corners; infinities allowed, NaN refused.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only the count and I/O statistics.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run the query through the batched multicore executor on N domains (identical \
             results; exercises the sharded node cache).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some non_negative_ms) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Time budget for the query, at least 0: expiry is checked at every node visit and \
             the results matched before the cutoff are returned, labelled $(b,timed out).")
  in
  let run index window quiet jobs deadline_ms backend =
    with_index ~backend index (fun idx ->
        let tree = Index_file.tree idx in
        let deadline = Option.map Deadline.after_ms deadline_ms in
        (* Resilient path: device damage degrades the affected subtrees
           (quarantining their pages) instead of aborting, and the
           status line below says whether anything was skipped. *)
        let hits, stats =
          (* The span is what PRT_TRACE exports: under collection its
             end event carries the counter deltas (pager I/O, node
             visits), so one query's footprint reads off the dump. *)
          Obs.Trace.with_span "query"
            ~args:[ ("jobs", Obs.Json.Int (Option.value jobs ~default:1)) ]
            (fun () ->
              match jobs with
              | None ->
                  Rtree.query_list ~quarantine:(Index_file.quarantine idx) ?deadline tree window
              | Some j ->
                  (Qexec.run ~jobs:j ?deadline (Index_file.executor idx) [| window |]).(0))
        in
        if not quiet then
          List.iter
            (fun e ->
              Printf.printf "%d %g %g %g %g\n" (Entry.id e) (Rect.xmin (Entry.rect e))
                (Rect.ymin (Entry.rect e))
                (Rect.xmax (Entry.rect e))
                (Rect.ymax (Entry.rect e)))
            hits;
        Printf.printf "%d hits; %d leaf and %d internal nodes visited\n" stats.Rtree.matched
          stats.Rtree.leaf_visited stats.Rtree.internal_visited;
        Printf.printf "status: %s\n"
          (Format.asprintf "%a" Rtree.pp_completeness (Rtree.completeness stats));
        if not (Rtree.complete stats) then exit 3)
  in
  Cmd.v
    (Cmd.info "query"
       ~exits:
         (usage_exit
            "on command line errors, among them a negative $(b,--deadline-ms) or a NaN \
             coordinate in $(b,--window)."
            (Cmd.Exit.info 3 ~doc:"the answer is partial (damage skipped or deadline expired)."
            :: index_exits))
       ~doc:
         "Run a window query against an index file. Damaged pages degrade the query instead of \
          failing it; any partiality is reported on the status line and through exit code 3.")
    Term.(const run $ index $ window $ quiet $ jobs $ deadline_ms $ backend_arg)

(* Open an index read-write and run the mutation [f] as one atomic
   transaction: a crash mid-operation reopens to the pre-op tree. *)
let with_index_rw path f =
  with_index path (fun idx -> Index_file.update idx f)

let insert_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let window =
    Arg.(
      required
      & opt (some window_conv) None
      & info [ "rect"; "r" ] ~docv:"X0,Y0,X1,Y1" ~doc:"Rectangle to insert; NaN refused.")
  in
  let run index rect id =
    with_index_rw index (fun tree ->
        Dynamic.insert tree (Entry.make rect id);
        Printf.printf "inserted #%d; index now holds %d rectangles\n" id (Rtree.count tree))
  in
  Cmd.v
    (Cmd.info "insert" ~exits:(usage_exit rect_id_usage index_exits)
       ~doc:"Insert a rectangle into an index file (Guttman insertion).")
    Term.(const run $ index $ window $ id_arg)

let delete_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let window =
    Arg.(
      required
      & opt (some window_conv) None
      & info [ "rect"; "r" ] ~docv:"X0,Y0,X1,Y1" ~doc:"Rectangle to delete; NaN refused.")
  in
  let run index rect id =
    with_index_rw index (fun tree ->
        if Dynamic.delete tree (Entry.make rect id) then
          Printf.printf "deleted #%d; index now holds %d rectangles\n" id (Rtree.count tree)
        else Printf.printf "no such entry\n")
  in
  Cmd.v
    (Cmd.info "delete" ~exits:(usage_exit rect_id_usage index_exits)
       ~doc:"Delete a rectangle from an index file.")
    Term.(const run $ index $ window $ id_arg)

let compare_cmd =
  let input =
    Arg.(required & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Dataset file.")
  in
  let run input =
    let entries = read_data input in
    Printf.printf "%d rectangles; building every variant in memory...\n%!" (Array.length entries);
    let rows =
      List.map
        (fun (vname, load) ->
          let pool = memory_pool () in
          let t0 = Unix.gettimeofday () in
          let tree = load pool entries in
          let secs = Unix.gettimeofday () -. t0 in
          let s = Audit.validate tree in
          let m = Metrics.analyze tree in
          [
            vname;
            Printf.sprintf "%.2f" secs;
            string_of_int s.Audit.leaves;
            Printf.sprintf "%.0f%%" (100.0 *. s.Audit.utilization);
            Printf.sprintf "%.6f" m.Metrics.leaf_overlap;
          ])
        variant_loaders
    in
    Table.print
      ~header:[ "variant"; "build s"; "leaves"; "utilization"; "leaf overlap" ]
      rows
  in
  Cmd.v
    (Cmd.info "compare" ~exits:dataset_exits
       ~doc:"Build every index variant over a dataset and compare quality.")
    Term.(const run $ input)

let knn_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let point_conv =
    let parse = parse_coords ~arity:2 ~expected:"x,y" (fun c -> (c.(0), c.(1))) in
    Arg.conv (parse, fun ppf (x, y) -> Format.fprintf ppf "%g,%g" x y)
  in
  let point =
    Arg.(
      required
      & opt (some point_conv) None
      & info [ "at"; "p" ] ~docv:"X,Y" ~doc:"Query point; NaN refused.")
  in
  let k =
    Arg.(value & opt (int_at_least 0) 5 & info [ "k" ] ~docv:"K" ~doc:"Number of neighbours.")
  in
  let run index (x, y) k =
    with_index index (fun idx ->
        let tree = Index_file.tree idx in
        let results, stats = Knn.nearest tree ~x ~y ~k in
        List.iter
          (fun (e, d) ->
            Printf.printf "%d dist=%g %g %g %g %g\n" (Entry.id e) d (Rect.xmin (Entry.rect e))
              (Rect.ymin (Entry.rect e))
              (Rect.xmax (Entry.rect e))
              (Rect.ymax (Entry.rect e)))
          results;
        Printf.printf "%d neighbours; %d nodes read\n" (List.length results) stats.Knn.nodes_read)
  in
  Cmd.v
    (Cmd.info "knn"
       ~exits:
         (usage_exit
            "on command line errors, among them a negative $(b,-k) or a NaN coordinate in \
             $(b,--at)."
            index_exits)
       ~doc:"Find the k nearest rectangles to a point.")
    Term.(const run $ index $ point $ k)

(* --- the LSM ingestion tier --- *)

(* An LSM store is a directory holding a component manifest; the
   file-backed commands below route on this. *)
let is_lsm_dir path =
  Sys.file_exists path && Sys.is_directory path && Manifest.load path <> None

let print_ingest_stats (s : Lsm.stats) =
  Printf.printf "components:%s\n"
    (if s.Lsm.s_components = [] then " none"
     else
       String.concat ""
         (List.map
            (fun (level, n, healthy) ->
              Printf.sprintf " L%d=%d%s" level n (if healthy then "" else "(FAILED)"))
            s.Lsm.s_components));
  Printf.printf "buffer: %d active, %d sealed, %d tombstone(s)\n" s.Lsm.s_buffer
    s.Lsm.s_sealed s.Lsm.s_tombstones;
  Printf.printf "wal: %d byte(s) pending replay across %d segment(s)\n" s.Lsm.s_wal_bytes
    s.Lsm.s_wal_segments;
  Printf.printf "recovery: replayed %d record(s), reclaimed %d orphan(s)\n" s.Lsm.s_replayed
    s.Lsm.s_orphans_reclaimed;
  Printf.printf "last merge: %s\n" s.Lsm.s_last_merge;
  Printf.printf "merges: %d committed, %d aborted\n" s.Lsm.s_merges s.Lsm.s_merge_aborts;
  if s.Lsm.s_bytes_acked > 0 then
    Printf.printf "write amplification: %.2f (%d byte(s) acked -> %d written)\n"
      (float_of_int s.Lsm.s_bytes_written /. float_of_int s.Lsm.s_bytes_acked)
      s.Lsm.s_bytes_acked s.Lsm.s_bytes_written

let lsm_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"LSM store directory.")

let lsm_page_size_arg =
  Arg.(
    value
    & opt int Pager.default_page_size
    & info [ "page-size" ] ~docv:"BYTES" ~doc:"Component page size (must match across opens).")

let ingest_cmd =
  let input =
    Arg.(
      required & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Dataset file (see $(b,prt gen)).")
  in
  let buffer =
    Arg.(
      value & opt (int_at_least 1) 8192
      & info [ "buffer" ] ~docv:"N"
          ~doc:
            "In-memory buffer capacity, at least 1 (M0 of the logarithmic method; only used \
             when creating the store).")
  in
  let wal_sync =
    Arg.(
      value
      & opt (enum [ ("always", `Always); ("never", `Never) ]) `Always
      & info [ "wal-sync" ] ~docv:"MODE"
          ~doc:"fsync the WAL per insert (acknowledged = durable) or never (trade the \
                power-loss window for throughput).")
  in
  let background =
    Arg.(value & flag & info [ "background" ] ~doc:"Run merges on a dedicated domain.")
  in
  let id_base =
    Arg.(
      value & opt int 0
      & info [ "id-base" ] ~docv:"N"
          ~doc:"Offset added to every dataset entry id (ingest the same dataset twice \
                without colliding).")
  in
  let run dir input buffer page_size wal_sync background id_base =
    let entries = read_data input in
    let entries =
      if id_base = 0 then entries
      else Array.map (fun e -> Entry.make (Entry.rect e) (Entry.id e + id_base)) entries
    in
    let t =
      opening "open LSM store" dir (fun () ->
          (if is_lsm_dir dir then Lsm.open_ else Lsm.create)
            ~buffer_capacity:buffer ~page_size ~wal_sync ~background dir)
    in
    Fun.protect
      ~finally:(fun () -> Lsm.close t)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        Array.iter (Lsm.insert t) entries;
        Lsm.wait_merges t;
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf "ingested %d entries into %s in %.2fs (%.0f inserts/s)\n"
          (Array.length entries) dir dt
          (float_of_int (Array.length entries) /. dt);
        Printf.printf "store now holds %d live entries\n" (Lsm.count t);
        print_ingest_stats (Lsm.stats t))
  in
  Cmd.v
    (Cmd.info "ingest"
       ~exits:
         (usage_exit "on command line errors, among them a $(b,--buffer) below 1."
            (exits_2 "the dataset file could not be read, or the LSM store could not be opened."))
       ~doc:
         "Stream a dataset into a crash-safe LSM store (a directory of immutable PR-tree \
          components under a CRC'd manifest, WAL-acknowledged inserts, logarithmic-method \
          merges). Creates the store if the directory holds no manifest, resumes it \
          otherwise — replaying the WAL and reclaiming orphans first.")
    Term.(
      const run $ lsm_dir_arg $ input $ buffer $ lsm_page_size_arg $ wal_sync $ background
      $ id_base)

let compact_cmd =
  let buffer =
    Arg.(
      value & opt (int_at_least 1) 8192
      & info [ "buffer" ] ~docv:"N"
          ~doc:"Buffer capacity, at least 1 (slot sizing; match the ingest).")
  in
  let run dir buffer page_size =
    let t =
      opening "open LSM store" dir (fun () -> Lsm.open_ ~buffer_capacity:buffer ~page_size dir)
    in
    Fun.protect
      ~finally:(fun () -> Lsm.close t)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        Lsm.compact t;
        Printf.printf "compacted %s in %.2fs: %d live entries\n" dir
          (Unix.gettimeofday () -. t0)
          (Lsm.count t);
        Lsm.validate t;
        print_ingest_stats (Lsm.stats t))
  in
  Cmd.v
    (Cmd.info "compact"
       ~exits:(usage_exit "on command line errors, among them a $(b,--buffer) below 1." lsm_exits)
       ~doc:
         "Merge every live component of an LSM store into a single PR-tree component, \
          resolving all reachable tombstones, via one atomic manifest swap.")
    Term.(const run $ lsm_dir_arg $ buffer $ lsm_page_size_arg)

let stats_cmd =
  let index =
    Arg.(
      required & opt (some string) None
      & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file or LSM store directory.")
  in
  let lsm_stats dir =
    let t = opening "open LSM store" dir (fun () -> Lsm.open_ dir) in
    Fun.protect
      ~finally:(fun () -> Lsm.close t)
      (fun () ->
        Printf.printf "lsm store: %d live entries\n" (Lsm.count t);
        print_ingest_stats (Lsm.stats t);
        Lsm.validate t;
        Printf.printf "validate: every healthy component structurally sound\n")
  in
  let run index backend =
    if is_lsm_dir index then lsm_stats index
    else
    with_index ~backend index (fun idx ->
        (* Metrics are recorded only while collection is on; flip it so
           the probe batch below fills the latency histogram. *)
        Obs.Metrics.set_collecting true;
        let tree = Index_file.tree idx in
        let s = validated tree in
        let m = Metrics.analyze tree in
        Printf.printf "height %d, %d entries, fanout %d\n" (Rtree.height tree) (Rtree.count tree)
          (Rtree.capacity tree);
        Printf.printf "%s\n" (Format.asprintf "%a" Metrics.pp m);
        Printf.printf "utilization %.1f%%, min leaf fill %d, min fanout %d\n"
          (100.0 *. s.Audit.utilization) s.Audit.min_leaf_fill s.Audit.min_internal_fanout;
        (* Storage-side statistics accumulated while computing the above
           (validate + analyze read every node once, modulo caching). *)
        let pool = Index_file.pool idx in
        let pager = Index_file.pager idx in
        Printf.printf "superblock: commit %d\n"
          (Superblock.commit_count (Index_file.superblock idx));
        Printf.printf "pager: %s\n"
          (Format.asprintf "%a" Pager.pp_snapshot (Pager.snapshot pager));
        Printf.printf "checksum failures: %d corrupt page read(s)\n" (Pager.corrupt_reads pager);
        let pct r = if Float.is_nan r then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. r) in
        Printf.printf "pool: hits=%d misses=%d evictions=%d hit-ratio=%s\n"
          (Buffer_pool.hits pool) (Buffer_pool.misses pool) (Buffer_pool.evictions pool)
          (pct (Buffer_pool.hit_ratio pool));
        (* Read backend: validate/analyze above already exercised it, so
           the mmap counters reflect real mapped descents. *)
        (match Index_file.mmap_counters idx with
        | Some c ->
            Printf.printf
              "backend: mmap (windows-served=%d crc-skipped=%d crc-verified=%d fallbacks=%d)\n"
              c.Prt_storage.Mmap_pager.c_windows_served c.Prt_storage.Mmap_pager.c_crc_skipped
              c.Prt_storage.Mmap_pager.c_crc_verified c.Prt_storage.Mmap_pager.c_fallbacks
        | None -> Printf.printf "backend: pread\n");
        (* Exercise the batched executor's shard cache with a repeated
           whole-tree batch: the first query decodes every internal node
           into the cache, the second is served from it. *)
        let exec = Index_file.executor idx in
        (match Rtree.mbr tree with
        | Some box -> ignore (Qexec.run ~jobs:1 exec [| box; box |])
        | None -> ());
        let cs = Qexec.cache_stats exec in
        Printf.printf "shard-cache: hits=%d misses=%d invalidations=%d hit-ratio=%s\n"
          cs.Shard_cache.st_hits cs.Shard_cache.st_misses cs.Shard_cache.st_invalidations
          (pct (Qexec.cache_hit_ratio exec));
        Printf.printf "degraded: %s\n"
          (Format.asprintf "%a" Buffer_pool.pp_degraded (Buffer_pool.degraded pool));
        (* MVCC retention, resilience surfaces, and the latency
           percentiles of the probe batch above — the runtime health
           counters the telemetry layer aggregates across domains. *)
        let sb = Index_file.superblock idx in
        let mv = Pager.mvcc_stats pager in
        Printf.printf "mvcc: generation %d, retained versions %d, parked pages %d, pins %d, pin floor %d\n"
          (Superblock.generation sb) mv.Pager.live_versions mv.Pager.parked_pages
          (Superblock.pin_count sb) (Superblock.pinned_floor sb);
        Printf.printf "quarantine: %d page(s)\n" (Quarantine.count (Index_file.quarantine idx));
        Printf.printf "breaker: %s\n"
          (Format.asprintf "%a" Retry.pp_breaker_health
             (Retry.breaker_health (Buffer_pool.retry_engine pool)));
        let lat = Obs.Metrics.histogram "query.latency_us" in
        if Obs.Metrics.histogram_count lat > 0 then
          Printf.printf "query latency: p50=%.0fus p95=%.0fus p99=%.0fus (%d queries)\n"
            (Obs.Metrics.percentile lat 50.0) (Obs.Metrics.percentile lat 95.0)
            (Obs.Metrics.percentile lat 99.0) (Obs.Metrics.histogram_count lat))
  in
  Cmd.v
    (Cmd.info "stats"
       ~exits:
         (Cmd.Exit.info 1 ~doc:"an invariant of the index does not hold, a damaged page included."
         :: exits_2 "the index file or LSM store could not be opened.")
       ~doc:
         "Print per-level structure and quality metrics of an index — or, given an LSM \
          store directory, its ingestion health: components per level, WAL bytes pending \
          replay, last-merge outcome, orphans reclaimed.")
    Term.(const run $ index $ backend_arg)

let flightrec_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let out =
    Arg.(
      value & opt string "flightrec.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace-event JSON output path.")
  in
  let jobs =
    Arg.(value & opt int 4 & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the batch.")
  in
  let window =
    Arg.(
      value
      & opt (some window_conv) None
      & info [ "window"; "w" ] ~docv:"X0,Y0,X1,Y1"
          ~doc:"Query window (defaults to the tree's bounding box, or the unit square when the \
                tree is empty).")
  in
  let repeat =
    Arg.(value & opt int 8 & info [ "repeat"; "n" ] ~docv:"N" ~doc:"Queries in the batch.")
  in
  let run index out jobs window repeat =
    with_index index (fun idx ->
        let tree = Index_file.tree idx in
        let window =
          match (window, Rtree.mbr tree) with
          | Some w, _ | None, Some w -> w
          | None, None -> Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0
        in
        (* The dump holds the batch span, with its counter deltas, on
           this domain's track, and each worker's query spans and
           resilience events on its own.  This domain runs queries too,
           so its ring is grown to keep a large batch's span. *)
        Obs.Metrics.set_collecting true;
        Obs.Flight.reserve (1 lsl 16);
        let exec = Index_file.executor idx in
        let queries = Array.make (max 1 repeat) window in
        let stats = Rtree.fresh_stats () in
        Array.iter (fun (_, s) -> Rtree.merge_stats stats s) (Qexec.run ~jobs exec queries);
        let n = Obs.Flight.dump out in
        Printf.printf "%d queries over %d domain(s): %d matches\n" (Array.length queries) jobs
          stats.Rtree.matched;
        Printf.printf "flight recorder: %d event(s) recorded, %d dropped\n"
          (Obs.Flight.total_recorded ()) (Obs.Flight.dropped ());
        Printf.printf "%d trace event(s) -> %s\n" n out;
        Printf.printf "status: %s\n"
          (Format.asprintf "%a" Rtree.pp_completeness (Rtree.completeness stats));
        if not (Rtree.complete stats) then exit 3)
  in
  Cmd.v
    (Cmd.info "flightrec"
       ~exits:
         (usage_exit window_usage
            (Cmd.Exit.info 3 ~doc:"the batch's answer is partial (damage skipped)." :: index_exits))
       ~doc:
         "Run a multicore query batch and dump the flight recorder's rings as a Chrome trace \
          (the batch span on this domain's track, each worker's query spans and resilience \
          events on its own). Load the output in Perfetto or about:tracing.")
    Term.(const run $ index $ out $ jobs $ window $ repeat)

let profile_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let window =
    Arg.(
      required
      & opt (some window_conv) None
      & info [ "window"; "w" ] ~docv:"X0,Y0,X1,Y1"
          ~doc:"Query window corners; infinities allowed, NaN refused.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat"; "n" ] ~docv:"N" ~doc:"Run the query N times (first run cold, rest warm).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Also record a Chrome trace-event JSON file (load it in Perfetto or about:tracing).")
  in
  let run index window repeat trace =
    with_index index (fun idx ->
        let tree = Index_file.tree idx in
        (* Spans carry counter deltas while collection is on. *)
        let was_collecting = Obs.Metrics.collecting () in
        if trace <> None then begin
          Obs.Metrics.set_collecting true;
          Obs.Flight.reserve (1 lsl 16)
        end;
        Fun.protect
          ~finally:(fun () ->
            match trace with
            | Some path ->
                let n = Obs.Flight.dump path in
                Obs.Metrics.set_collecting was_collecting;
                Printf.printf "wrote %d trace events to %s\n" n path
            | None -> ())
          (fun () ->
            let pool = Rtree.pool tree in
            let last = ref None in
            for run = 1 to max 1 repeat do
              let p = Rtree.query_profile tree window ~f:(fun _ -> ()) in
              if run = 1 || run = max 1 repeat then last := Some (run, p)
            done;
            (match !last with
            | Some (run, p) ->
                if repeat > 1 then Printf.printf "profile of run %d/%d:\n" run repeat;
                Printf.printf "%s\n" (Format.asprintf "%a" Rtree.pp_profile p)
            | None -> ());
            Printf.printf "pool totals: hits=%d misses=%d evictions=%d\n" (Buffer_pool.hits pool)
              (Buffer_pool.misses pool) (Buffer_pool.evictions pool);
            if trace <> None then begin
              let stats = Obs.Trace.summary () in
              List.iter
                (fun s ->
                  Printf.printf "span %-24s calls=%d total=%.0fus%s\n" s.Obs.Trace.span_name
                    s.Obs.Trace.calls s.Obs.Trace.total_us
                    (String.concat ""
                       (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) s.Obs.Trace.io)))
                stats
            end))
  in
  Cmd.v
    (Cmd.info "profile" ~exits:(usage_exit window_usage index_exits)
       ~doc:
         "Profile a window query: nodes visited per level, pager and buffer-pool activity, \
          wall-clock time, and optionally a Chrome trace.")
    Term.(const run $ index $ window $ repeat $ trace)

let validate_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let run index =
    with_index index (fun idx ->
        let tree = Index_file.tree idx in
        let s = validated tree in
        Printf.printf "valid: %d entries in %d leaves / %d nodes, height %d, utilization %.1f%%\n"
          s.Audit.entries s.Audit.leaves s.Audit.nodes (Rtree.height tree)
          (100.0 *. s.Audit.utilization))
  in
  Cmd.v
    (Cmd.info "validate"
       ~exits:
         (Cmd.Exit.info 1 ~doc:"an invariant does not hold, a damaged page included."
         :: checking_exits)
       ~doc:
         "Check the structural invariants of an index file: pages that decode, leaf depth, \
          exact parent boxes, page order and the entry count. Exits 1 on a violation, naming \
          the first.")
    Term.(const run $ index)

let audit_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let no_leaks =
    Arg.(
      value & flag
      & info [ "no-leak-check" ] ~doc:"Skip the page-leak sweep (for indexes sharing their file).")
  in
  let run index no_leaks =
    with_index index (fun idx ->
        let tree = Index_file.tree idx in
        (* Pages 0/1 hold the shadow superblock pair, and a shadow chain
           (when the file carries one) owns its directory and copy
           pages; all of them are reachable by contract. *)
        let report =
          Audit.check ~check_leaks:(not no_leaks)
            ~reachable:(0 :: 1 :: Index_file.shadow_pages idx)
            tree
        in
        Printf.printf "%s\n" (Format.asprintf "%a" Audit.pp_report report);
        if not (Audit.ok report) then exit 1)
  in
  Cmd.v
    (Cmd.info "audit"
       ~exits:
         (Cmd.Exit.info 1 ~doc:"the audit found violations, a damaged page included."
         :: checking_exits)
       ~doc:
         "Run the full invariant audit on an index file: MBR containment and tightness, uniform \
          leaf depth, fill bounds, entry counts, and page leaks. Exits 1 on any violation.")
    Term.(const run $ index $ no_leaks)

let scrub_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let online =
    Arg.(
      value & flag
      & info [ "online" ]
          ~doc:
            "Run the incremental self-healing pass: verify pages, heal damage from the shadow \
             chain (indexes built with $(b,prt build --shadow)), quarantine what cannot be \
             proven. Without this flag only a read-only verification sweep runs.")
  in
  let pages =
    Arg.(
      value & opt (int_at_least 1) 64
      & info [ "pages" ] ~docv:"N"
          ~doc:"Page budget per scrub increment (online mode), at least 1.")
  in
  let run index online pages =
    with_index index (fun idx ->
        if online then begin
          (* Drive increments until the cursor wraps: one full pass over
             the file, in deadline-friendly slices. *)
          let scanned = ref 0 and damaged = ref 0 and healed = ref 0 in
          let quarantined = ref 0 and cleared = ref 0 in
          let wrapped = ref false in
          while not !wrapped do
            let r = Index_file.scrub_online ~pages idx in
            scanned := !scanned + r.Scrub.on_scanned;
            damaged := !damaged + r.Scrub.on_damaged;
            healed := !healed + r.Scrub.on_healed;
            quarantined := !quarantined + r.Scrub.on_quarantined;
            cleared := !cleared + r.Scrub.on_cleared;
            wrapped := r.Scrub.on_wrapped || r.Scrub.on_scanned = 0
          done;
          Printf.printf
            "online scrub: %d pages scanned, %d damaged, %d healed, %d quarantined, %d cleared\n"
            !scanned !damaged !healed !quarantined !cleared;
          Printf.printf "quarantine now holds %d page(s)\n"
            (Quarantine.count (Index_file.quarantine idx));
          if !damaged > !healed then exit 1
        end
        else begin
          let pager = Index_file.pager idx in
          let report = Scrub.run ~free:(fun id -> Pager.is_free pager id) pager in
          Printf.printf "%s\n" (Format.asprintf "%a" Scrub.pp_report report);
          if not (Scrub.clean report) then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~exits:
         (usage_exit "on command line errors, among them a $(b,--pages) below 1."
            (Cmd.Exit.info 1 ~doc:"unrepaired damage remains." :: checking_exits))
       ~doc:
         "Verify every page checksum of an index file. With $(b,--online), additionally heal \
          damaged pages in place from the post-image shadow chain and maintain the quarantine — \
          the live self-healing pass. Exits 1 when unrepaired damage remains.")
    Term.(const run $ index $ online $ pages)

let fsck_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let rebuild =
    Arg.(
      value
      & opt (some string) None
      & info [ "rebuild" ] ~docv:"FILE"
          ~doc:
            "Salvage every checksummed-valid entry from the file and bulk-load them into a fresh \
             PR-tree index at $(docv) — the last resort when no valid superblock survives.")
  in
  let run index rebuild =
    (match (Unix.stat index).Unix.st_kind with
    | Unix.S_REG -> ()
    | _ -> cannot_open index "not a regular file"
    | exception Unix.Unix_error (e, _, _) -> cannot_open index (Unix.error_message e));
    let rebuild =
      Option.map (fun out -> (out, fun pool entries -> Prtree.load pool entries)) rebuild
    in
    let report = Index_file.fsck ?rebuild index in
    Printf.printf "%s\n" (Format.asprintf "%a" Index_file.pp_fsck report);
    if not (Index_file.fsck_clean report) then exit 1
  in
  Cmd.v
    (Cmd.info "fsck" ~exits:(Cmd.Exit.info 1 ~doc:"the check reported a finding." :: checking_exits)
       ~doc:
         "Check and repair an index file: tolerate a torn final write, pick the newest valid \
          superblock, roll back an interrupted transaction from the pre-image journal, repair a \
          damaged superblock slot, verify every page checksum, and optionally salvage-rebuild. \
          Exits 1 if any issue was found.")
    Term.(const run $ index $ rebuild)

(* --- the serving tier --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT" ~doc:"TCP port.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"TCP host address.")

(* [--socket] or [--port]: neither, or a port out of range, is a
   command-line fault, reported through cmdliner's usage-error path
   (exit 124). *)
let endpoint_term ~verb =
  Term.(
    ret
      (const (fun socket port ->
           match (socket, port) with
           | None, None -> `Error (true, "need --socket PATH or --port PORT to " ^ verb)
           | _, Some p when p < 0 || p > 0xFFFF -> `Error (true, "--port must be in 0..65535")
           | _ -> `Ok (socket, port))
      $ socket_arg $ port_arg))

let serve_cmd =
  let index =
    Arg.(required & opt (some string) None & info [ "i"; "index" ] ~docv:"FILE" ~doc:"Index file.")
  in
  let quota_rate =
    Arg.(
      value & opt float 0.0
      & info [ "quota-rate" ] ~docv:"R"
          ~doc:"Per-connection token refill rate (query windows per second).")
  in
  let quota_burst =
    Arg.(
      value & opt float 0.0
      & info [ "quota-burst" ] ~docv:"B"
          ~doc:"Per-connection token bucket capacity; 0 disables quotas.")
  in
  let max_in_flight =
    Arg.(
      value & opt int 0
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:"Executor admission cap (queries in flight); 0 = unbounded.")
  in
  let max_queue =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_queue
      & info [ "max-queue" ] ~docv:"N" ~doc:"Parsed requests queued before shedding.")
  in
  let max_conns =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_conns
      & info [ "max-conns" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Executor domains per batch.")
  in
  let write_timeout =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.write_timeout_ms
      & info [ "write-timeout-ms" ] ~docv:"MS" ~doc:"Slow-client write cutoff.")
  in
  let drain_deadline =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.drain_deadline_ms
      & info [ "drain-deadline-ms" ] ~docv:"MS" ~doc:"Budget for graceful drain on shutdown.")
  in
  let run index (socket, port) host quota_rate quota_burst max_in_flight max_queue max_conns jobs
      write_timeout drain_deadline backend =
    with_index ~backend index (fun idx ->
        let config =
          {
            Serve.Server.default_config with
            Serve.Server.quota_rate;
            quota_burst;
            max_in_flight;
            max_queue;
            max_conns;
            jobs;
            write_timeout_ms = write_timeout;
            drain_deadline_ms = drain_deadline;
          }
        in
        let srv = Serve.Server.create ~config idx in
        (match socket with
        | Some path ->
            opening "listen on unix socket" path (fun () -> Serve.Server.listen_unix srv path);
            Printf.printf "prt serve: listening on unix socket %s\n%!" path
        | None -> ());
        (match port with
        | Some port ->
            opening "listen on" (Printf.sprintf "%s:%d" host port) (fun () ->
                Serve.Server.listen_tcp ~host srv port);
            Printf.printf "prt serve: listening on %s:%d\n%!" host port
        | None -> ());
        (* SIGTERM/SIGINT begin a graceful drain: stop accepting, finish
           in-flight requests under the drain deadline, then exit. *)
        let drain _ = Serve.Server.request_drain srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
        Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
        let report = Serve.Server.run srv in
        Printf.printf "%s\n" (Format.asprintf "%a" Serve.Server.pp_report report))
  in
  Cmd.v
    (Cmd.info "serve"
       ~exits:
         (exits_2
            "the index file could not be opened (missing, unreadable, not an index, or written \
             by another format), or the server could not listen on the socket or port.")
       ~doc:
         "Serve window queries over a Unix-domain or TCP socket (length-prefixed CRC'd binary \
          frames, see DESIGN.md). Per-client token-bucket quotas, bounded-queue load shedding \
          with retry-after hints, per-request deadlines, slow-client cutoffs, and graceful drain \
          on SIGTERM/SIGINT.")
    Term.(
      const run $ index $ endpoint_term ~verb:"listen on" $ host_arg $ quota_rate $ quota_burst
      $ max_in_flight $ max_queue $ max_conns $ jobs $ write_timeout $ drain_deadline
      $ backend_arg)

let load_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("skewed", `Skewed); ("cluster", `Cluster); ("uniform", `Uniform) ]) `Skewed
      & info [ "workload" ] ~docv:"KIND" ~doc:"Query workload: skewed, cluster or uniform.")
  in
  let queries =
    Arg.(
      value & opt (int_at_least 0) 256
      & info [ "queries"; "n" ] ~docv:"N" ~doc:"Query windows to replay.")
  in
  let concurrency =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "concurrency"; "c" ] ~docv:"N" ~doc:"Client worker domains.")
  in
  let batch =
    Arg.(
      value & opt (int_at_least 1) 8 & info [ "batch"; "b" ] ~docv:"N" ~doc:"Windows per request.")
  in
  let deadline =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline budget; 0 = none.")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget per request for overload/quota rejections (jittered backoff \
                honouring the server's retry-after hints).")
  in
  let drain_after =
    Arg.(
      value & flag
      & info [ "drain" ] ~doc:"Send a drain request once the replay finishes (shuts the server \
                               down gracefully).")
  in
  let run (socket, port) host workload queries concurrency batch deadline retries seed drain_after
      =
    let endpoint, connect =
      match (socket, port) with
      | Some path, _ -> (path, fun () -> Serve.Client.connect_unix path)
      | None, Some port ->
          (Printf.sprintf "%s:%d" host port, fun () -> Serve.Client.connect_tcp ~host port)
      | None, None -> assert false (* [endpoint_term] refuses it *)
    in
    (* One connection before the replay: an endpoint nobody listens on
       is refused by name, not reported as a run with no answers. *)
    Serve.Client.close (opening "connect to" endpoint connect);
    let windows =
      match workload with
      | `Skewed -> Queries.skewed_squares ~count:queries ~area_fraction:0.0001 ~c:5 ~seed
      | `Cluster -> Queries.cluster_strips ~count:queries ~seed
      | `Uniform ->
          Queries.squares ~count:queries ~area_fraction:0.0001
            ~world:(Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0)
            ~seed
    in
    let cfg =
      {
        (Serve.Load_gen.default_config ~connect) with
        Serve.Load_gen.concurrency;
        batch;
        deadline_ms = deadline;
        max_retries = retries;
        seed;
      }
    in
    let stats = Serve.Load_gen.run cfg windows in
    Printf.printf "%s\n" (Format.asprintf "%a" Serve.Load_gen.pp_stats stats);
    if drain_after then begin
      let c = connect () in
      (match Serve.Client.drain c with
      | Ok health ->
          Printf.printf "drain requested: generation %d, %d connection(s) live\n"
            health.Serve.Wire.h_generation health.Serve.Wire.h_conns
      | Error f -> Printf.printf "drain failed: %s\n" (Format.asprintf "%a" Serve.Client.pp_failure f));
      Serve.Client.close c
    end;
    if stats.Serve.Load_gen.protocol_errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~exits:
         (usage_exit
            "on command line errors, among them a negative $(b,-n), or a $(b,-c) or $(b,-b) \
             below 1."
            (Cmd.Exit.info 1 ~doc:"some reply was a protocol error."
            :: exits_2 "the server could not be reached on the socket or port."))
       ~doc:
         "Replay a query workload against a running $(b,prt serve) instance from concurrent \
          worker domains, with bounded jittered-backoff retries on overload/quota rejections. \
          Prints matched counts, rejection/retry tallies, p50/p99 latency and QPS.")
    Term.(
      const run $ endpoint_term ~verb:"connect to" $ host_arg $ workload $ queries $ concurrency
      $ batch $ deadline $ retries $ seed_arg $ drain_after)

let () =
  (* A client hanging up mid-reply must surface as EPIPE on that
     connection, never kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* PRT_TRACE=out.json traces any subcommand end to end: spans carry
     counter deltas, this domain's ring holds the whole run, and the
     rings are dumped at exit (same contract as the bench harness). *)
  (match Sys.getenv_opt "PRT_TRACE" with
  | Some path when path <> "" ->
      Obs.Metrics.set_collecting true;
      Obs.Flight.reserve (1 lsl 18);
      at_exit (fun () ->
          let n = Obs.Flight.dump path in
          Printf.eprintf "trace: %d event(s) -> %s\n%!" n path)
  | _ -> ());
  let doc = "Priority R-tree spatial index tooling" in
  let info = Cmd.info "prt" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            gen_cmd;
            build_cmd;
            query_cmd;
            flightrec_cmd;
            profile_cmd;
            knn_cmd;
            insert_cmd;
            delete_cmd;
            ingest_cmd;
            compact_cmd;
            compare_cmd;
            stats_cmd;
            validate_cmd;
            audit_cmd;
            scrub_cmd;
            fsck_cmd;
            serve_cmd;
            load_cmd;
          ]))
