(* Construction-cost experiments: Figures 9, 10 and 11.

   All builds run through the external (I/O-counted) loaders on a fresh
   simulated disk; the input record file is written before measurement
   starts. Paper reference numbers are printed alongside (converted to
   ratios against H, since our absolute scale is 1:100 by default). *)

module Table = Prt_util.Table
module Tiger = Prt_workloads.Tiger
module Datasets = Prt_workloads.Datasets

open Common

(* Read-backend comparison (not a paper figure): the PR-tree built
   file-backed, then reopened and queried under each read backend —
   pread (page cache through the buffer pool) vs mmap (rect tests
   straight against the shared file mapping, allocation-free descent).
   The match counts must be byte-identical; the mapped window/fallback
   counters are deterministic (fixed tree, fixed query batch) and gated
   by check_regress.  Backend timings are perfbench's. *)
let backend_rows ~scale ~seed (dname, entries) =
  let module Index_file = Prt_rtree.Index_file in
  let module Queries = Prt_workloads.Queries in
  let n = Array.length entries in
  let batch = max 32 (int_of_float (500.0 *. scale)) in
  let world = Queries.world_of entries in
  let queries = Queries.squares ~count:batch ~area_fraction:0.01 ~world ~seed:(seed + 7) in
  let path = Filename.temp_file "prt_bench_backend" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let idx =
    Index_file.create ~page_size path ~build:(fun pool -> Prt_prtree.Prtree.load pool entries)
  in
  Index_file.close idx;
  let run backend bname =
    let matched, served, fallbacks = backend_pass path (backend, bname) queries in
    Bench_json.(
      row
        [
          ("dataset", str dname);
          ("mode", str "query-backend");
          ("backend", str bname);
          ("queries", int batch);
          ("entries", int n);
          ("matched", int matched);
          ("windows_served", int served);
          ("fallbacks", int fallbacks);
        ]);
    (matched, served, fallbacks)
  in
  let pm, _, _ = run `Pread "pread" in
  let mm, served, fb = run `Mmap "mmap" in
  if pm <> mm then
    failwith (Printf.sprintf "%s: pread matched %d, mmap matched %d" dname pm mm);
  Table.print
    ~header:[ "backend"; "matched"; "windows served"; "fallbacks" ]
    [ [ "pread"; commas pm; "-"; "-" ]; [ "mmap"; commas mm; commas served; commas fb ] ]

(* Figure 9: bulk-loading cost on the TIGER Western/Eastern datasets.
   Paper (I/Os, millions): Western H/H4 1.2, PR 3.1, TGS 14.7;
   Eastern H/H4 1.7, PR 4.4, TGS 21.1. *)
let fig9 ~scale ~seed =
  section "Figure 9: bulk-loading cost on TIGER-like data";
  degraded_banner ();
  let datasets =
    [ ("Western", Tiger.western ~scale ~seed); ("Eastern", Tiger.eastern ~scale ~seed:(seed + 1)) ]
  in
  let paper_ratio = function
    | "Western", H | "Western", H4 -> 1.0
    | "Western", PR -> 3.1 /. 1.2
    | "Western", TGS -> 14.7 /. 1.2
    | "Eastern", H | "Eastern", H4 -> 1.0
    | "Eastern", PR -> 4.4 /. 1.7
    | "Eastern", TGS -> 21.1 /. 1.7
    | _ -> Float.nan
  in
  List.iter
    (fun (dname, entries) ->
      note "%s: %s rectangles" dname (commas (Array.length entries));
      let results = List.map (fun v -> (v, measure_build v ~scale entries)) paper_variants in
      List.iter
        (fun (v, c) ->
          Bench_json.(
            row
              [
                ("dataset", str dname);
                ("variant", str (name v));
                ("ios", int c.ios);
                ("seconds", flt c.seconds);
                ("entries", int (Prt_rtree.Rtree.count c.tree));
              ]))
        results;
      let h_ios =
        match List.assoc_opt H results with Some c -> float_of_int c.ios | None -> Float.nan
      in
      let rows =
        List.map
          (fun (v, c) ->
            [
              name v;
              commas c.ios;
              f2 c.seconds;
              f2 (float_of_int c.ios /. h_ios);
              f2 (paper_ratio (dname, v));
              commas (Prt_rtree.Rtree.count c.tree);
            ])
          results
      in
      Table.print
        ~header:[ "variant"; "I/Os"; "seconds"; "I/O ratio vs H"; "paper ratio"; "entries" ]
        rows)
    datasets;
  section "Read backends: pread vs mmap answers on the file-backed PR-tree";
  List.iter (fun d -> backend_rows ~scale ~seed d) datasets

(* Figure 10: bulk-loading I/Os as the Eastern dataset grows.
   Paper (millions of I/Os at 2.1/5.7/9.2/12.7/16.7M rects):
   H 0.2/0.6/0.9/1.3/1.7, PR 0.6/1.5/2.4/3.3/4.4,
   TGS 1.8/6.2/11.0/15.2/21.1. *)
let fig10 ~scale ~seed =
  section "Figure 10: bulk-loading I/Os vs dataset size (Eastern slices)";
  degraded_banner ();
  let subsets = Tiger.eastern_subsets ~scale ~seed in
  let header =
    "variant"
    :: (Array.to_list subsets |> List.map (fun s -> commas (Array.length s) ^ " rects"))
  in
  let rows =
    List.map
      (fun v ->
        name v
        :: (Array.to_list subsets
           |> List.map (fun entries ->
                  let c = measure_build v ~scale entries in
                  Bench_json.(
                    row
                      [
                        ("variant", str (name v));
                        ("n", int (Array.length entries));
                        ("ios", int c.ios);
                        ("seconds", flt c.seconds);
                      ]);
                  commas c.ios)))
      paper_variants
  in
  Table.print ~header rows;
  note "paper shape: H and PR grow linearly; TGS grows slightly superlinearly,";
  note "  at roughly 3x PR's I/Os on the smallest slice and ~5x on the largest."

(* Figure 11: TGS bulk-loading time across data distributions.
   Paper (seconds, 10M rects): SIZE 0.2%..20%: 3726 3929 4552 5837 8952
   12111 14024; ASPECT 10..10^5: 4613 13196 12738 14034 8283. The
   point: TGS construction cost is strongly distribution-dependent while
   H/H4/PR are not. *)
let fig11 ~scale ~seed =
  section "Figure 11: TGS bulk-loading cost across distributions";
  degraded_banner ();
  let n = int_of_float (100_000.0 *. scale) in
  let size_params = [ 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2 ] in
  let aspect_params = [ 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0 ] in
  let datasets =
    List.map
      (fun s -> (Printf.sprintf "SIZE(%g)" s, Datasets.size ~n ~max_side:s ~seed))
      size_params
    @ List.map
        (fun a -> (Printf.sprintf "ASPECT(%g)" a, Datasets.aspect ~n ~a ~seed:(seed + 1)))
        aspect_params
  in
  let rows =
    List.map
      (fun (dname, entries) ->
        let tgs = measure_build TGS ~scale entries in
        let pr = measure_build PR ~scale entries in
        List.iter
          (fun (v, c) ->
            Bench_json.(
              row
                [
                  ("dataset", str dname);
                  ("variant", str (name v));
                  ("ios", int c.ios);
                  ("seconds", flt c.seconds);
                ]))
          [ (TGS, tgs); (PR, pr) ];
        [
          dname;
          commas tgs.ios;
          f2 tgs.seconds;
          commas pr.ios;
          f2 pr.seconds;
          f2 (float_of_int tgs.ios /. float_of_int pr.ios);
        ])
      datasets
  in
  Table.print
    ~header:[ "dataset"; "TGS I/Os"; "TGS s"; "PR I/Os"; "PR s"; "TGS/PR I/O ratio" ]
    rows;
  note "paper shape: TGS cost varies up to ~4x across distributions (4.6-16.4x";
  note "  PR's I/Os); PR's cost is essentially distribution-independent."

(* Checksum overhead: the on-disk format stamps a CRC-32C trailer into every
   page write and verifies it on every file-backend read.  This is not
   a paper figure; it guards the robustness PR's budget — the trailer
   must stay well under 10% of in-memory bulk-load time.  The CRC share
   is measured directly: time [Page.crc32c] over exactly as many pages
   as the build wrote (resp. the scan read) and compare. *)
let checksum ~scale ~seed =
  section "Page integrity trailer: CRC-32C overhead";
  let module Page = Prt_storage.Page in
  let module Index_file = Prt_rtree.Index_file in
  let n = max 10_000 (int_of_float (167_000.0 *. scale)) in
  let entries = Datasets.uniform_points ~n ~seed in
  let crc_seconds pages =
    let sample = Page.create page_size in
    Page.set_f64 sample 8 3.25;
    Page.stamp sample ~lsn:1;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to pages do
      ignore (Page.crc32c sample ~pos:0 ~len:(page_size - 4))
    done;
    Unix.gettimeofday () -. t0
  in
  (* In-memory bulk load: stamping is the only trailer cost (the memory
     backend does not verify reads). *)
  let pool = fresh_pool () in
  let pager = Buffer_pool.pager pool in
  let t0 = Unix.gettimeofday () in
  let tree = build_mem PR pool entries in
  Buffer_pool.flush pool;
  let build_s = Unix.gettimeofday () -. t0 in
  let writes = (Pager.snapshot pager).Pager.s_writes in
  let crc_build_s = crc_seconds writes in
  ignore (Rtree.count tree);
  (* File-backed build + cold full scan: every page read back is
     checksum-verified. *)
  let path = Filename.temp_file "prt_bench_crc" ".idx" in
  let scan_s, reads =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let idx =
          Index_file.create ~page_size path ~build:(fun pool ->
              Prt_prtree.Prtree.load pool entries)
        in
        Index_file.close idx;
        let idx = Index_file.open_ ~page_size path in
        let pager = Index_file.pager idx in
        let before = Pager.snapshot pager in
        let t0 = Unix.gettimeofday () in
        ignore (Audit.validate (Index_file.tree idx));
        let s = Unix.gettimeofday () -. t0 in
        let d = Pager.diff ~before ~after:(Pager.snapshot pager) in
        Index_file.close idx;
        (s, d.Pager.s_reads))
  in
  let crc_scan_s = crc_seconds reads in
  let share part whole = 100.0 *. part /. whole in
  Bench_json.(
    row
      [
        ("kind", str "mem-build");
        ("n", int n);
        ("pages", int writes);
        ("seconds", flt build_s);
        ("crc_seconds", flt crc_build_s);
        ("crc_pct", flt (share crc_build_s build_s));
      ]);
  Bench_json.(
    row
      [
        ("kind", str "file-scan");
        ("n", int n);
        ("pages", int reads);
        ("seconds", flt scan_s);
        ("crc_seconds", flt crc_scan_s);
        ("crc_pct", flt (share crc_scan_s scan_s));
      ]);
  let pct_s p = Printf.sprintf "%.1f%%" p in
  Table.print
    ~header:[ "phase"; "pages"; "seconds"; "CRC seconds"; "CRC share" ]
    [
      [
        "in-memory PR build";
        commas writes;
        f2 build_s;
        f2 crc_build_s;
        pct_s (share crc_build_s build_s);
      ];
      [ "file cold scan"; commas reads; f2 scan_s; f2 crc_scan_s; pct_s (share crc_scan_s scan_s) ];
    ];
  note "budget: the trailer must stay under 10%% of in-memory bulk-load time.";
  if share crc_build_s build_s >= 10.0 then
    note "WARNING: CRC share of the build exceeded the 10%% budget!"
