(* Shared machinery for the experiment harness: the R-tree variant
   registry (the paper's H, H4, PR, TGS plus STR as an extra), build
   measurement (I/Os through the pager, plus wall-clock time), and the
   query-cost metric used by the paper's figures — blocks read divided
   by the output size T/B, with all internal nodes cached, so blocks
   read = leaves visited. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Audit = Prt_rtree.Audit
module Ext_load = Prt_rtree.Ext_load
module Ext_build = Prt_prtree.Ext_build
module Table = Prt_util.Table
module Stats = Prt_util.Stats
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json
module Obs_metrics = Prt_obs.Metrics

(* Per-query distributions, visible in `prt-bench` runs under PRT_TRACE
   (the registry is only collecting while a trace sink is installed).
   Namespaced bench.* — the library owns the query.* counters. *)
let h_query_leaves = Obs_metrics.histogram "bench.query_leaves"
let h_query_matched = Obs_metrics.histogram "bench.query_matched"

type variant = H | H4 | PR | TGS | STR

let paper_variants = [ H; H4; PR; TGS ]
let all_variants = [ H; H4; PR; TGS; STR ]

let name = function H -> "H" | H4 -> "H4" | PR -> "PR" | TGS -> "TGS" | STR -> "STR"

(* The paper's setup: 4 KB blocks, 36-byte entries, fanout 113, and a
   64 MB memory budget. Data sizes are scaled 1:100 by default, and the
   memory budget scales with them so the external algorithms see the
   same number of levels as at paper scale. *)
let page_size = 4096
let capacity = Prt_rtree.Node.capacity ~page_size

let mem_records ~scale =
  max (16 * capacity) (int_of_float (float_of_int 1_800_000 /. 100.0 *. scale))

(* Optional degraded-mode runs: PRT_FAULT_RATE (a probability, e.g. 0.1)
   wraps every experiment pager in a deterministic failpoint, so the
   same figures can be reproduced over an unreliable simulated disk.
   The buffer pool's retry policy absorbs the transient faults; the
   injected/absorbed counts are reported next to the I/O numbers.  With
   the variable unset, pagers are bare — fault injection adds exactly
   zero observable I/O. *)
let fault_rate =
  match Sys.getenv_opt "PRT_FAULT_RATE" with
  | None -> 0.0
  | Some s -> (
      match float_of_string_opt s with
      | Some r when r >= 0.0 && r < 1.0 -> r
      | _ -> failwith "PRT_FAULT_RATE must be a float in [0, 1)")

let fault_seed =
  match Sys.getenv_opt "PRT_FAULT_SEED" with
  | None -> 4242
  | Some s -> int_of_string s

let fresh_pool () =
  let pager = Pager.create_memory ~page_size () in
  let pager =
    if fault_rate > 0.0 then
      Pager.wrap_faulty pager
        (Prt_storage.Failpoint.create (Prt_storage.Failpoint.uniform ~seed:fault_seed fault_rate))
    else pager
  in
  Buffer_pool.create ~capacity:4096 pager

(* One-line degraded-mode summary for a pool (empty when no faults were
   injected or absorbed). *)
let degraded_summary pool =
  let d = Buffer_pool.degraded pool in
  let injected =
    match Pager.failpoint (Buffer_pool.pager pool) with
    | None -> ""
    | Some fp ->
        let i = Prt_storage.Failpoint.injected fp in
        if Prt_storage.Failpoint.total_faults i = 0 then ""
        else Format.asprintf " injected: %a;" Prt_storage.Failpoint.pp_injected i
  in
  if d.Buffer_pool.faults = 0 && injected = "" then None
  else Some (Format.asprintf "degraded:%s absorbed: %a" injected Buffer_pool.pp_degraded d)

(* In-memory builders: used for the query experiments, where only the
   resulting tree matters. *)
let build_mem variant pool entries =
  match variant with
  | H -> Prt_rtree.Bulk_hilbert.load_h pool entries
  | H4 -> Prt_rtree.Bulk_hilbert.load_h4 pool entries
  | PR -> Prt_prtree.Prtree.load pool entries
  | TGS -> Prt_rtree.Bulk_tgs.load pool entries
  | STR -> Prt_rtree.Bulk_str.load pool entries

(* External builders: used for the construction-cost experiments, where
   every scan/sort/distribution pass is counted. *)
let build_ext variant pool ~mem_records file =
  match variant with
  | H -> Ext_load.load_h pool ~mem_records file
  | H4 -> Ext_load.load_h4 pool ~mem_records file
  | PR -> Ext_build.load ~mem_records pool file
  | TGS -> Ext_load.load_tgs pool ~mem_records file
  | STR -> invalid_arg "Common.build_ext: no external STR loader"

(* One pass of [queries] over the index file at [path], reopened under
   [backend] ([bname] must be the backend that attaches): the summed
   match count and the mapped windows served and pread fallbacks the
   pass produced, both deterministic for a fixed tree and batch. *)
let backend_pass path (backend, bname) queries =
  let module Index_file = Prt_rtree.Index_file in
  let module Mmap_pager = Prt_storage.Mmap_pager in
  let idx = Index_file.open_ ~page_size ~backend path in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  if Index_file.read_backend idx <> bname then
    failwith (Printf.sprintf "backend %s did not activate" bname);
  let tree = Index_file.tree idx and hits = Rtree.hits_make () in
  let counters () =
    match Index_file.mmap_counters idx with
    | Some c -> (c.Mmap_pager.c_windows_served, c.Mmap_pager.c_fallbacks)
    | None -> (0, 0)
  in
  let s0, f0 = counters () in
  let matched =
    Array.fold_left
      (fun acc w ->
        Rtree.query_into tree w ~into:hits;
        acc + Rtree.hits_length hits)
      0 queries
  in
  let s1, f1 = counters () in
  (matched, s1 - s0, f1 - f0)

type build_cost = { ios : int; seconds : float; tree : Rtree.t }

(* Measure an external bulk load: the input file is written first
   (outside the measurement), then every page touched during
   construction is counted. *)
let measure_build variant ~scale entries =
  Trace.with_span "bench.build"
    ~args:[ ("variant", Json.Str (name variant)); ("n", Json.Int (Array.length entries)) ]
  @@ fun () ->
  let pool = fresh_pool () in
  let pager = Buffer_pool.pager pool in
  let file = Entry.File.of_array pager entries in
  let before = Pager.snapshot pager in
  let t0 = Unix.gettimeofday () in
  let tree = build_ext variant pool ~mem_records:(mem_records ~scale) file in
  Buffer_pool.flush pool;
  let seconds = Unix.gettimeofday () -. t0 in
  let d = Pager.diff ~before ~after:(Pager.snapshot pager) in
  (match degraded_summary pool with
  | Some s -> Printf.printf "   [%s %s]\n%!" (name variant) s
  | None -> ());
  { ios = Pager.total_io d; seconds; tree }

type query_cost = {
  mean_leaves : float;   (* blocks read per query (internal nodes cached) *)
  mean_output : float;   (* T per query *)
  relative : float;      (* mean leaves / (T/B): the figures' y-axis *)
  leaves_total : int;
  matched_total : int;
}

(* [query] runs one window and returns its stats: a tree's, or a
   multi-component index's summed over its components. *)
let measure_queries_by query queries =
  let n = Array.length queries in
  if n = 0 then invalid_arg "Common.measure_queries: no queries";
  let leaves = ref 0 and matched = ref 0 in
  Trace.with_span "bench.queries"
    ~args:[ ("queries", Json.Int n) ]
    (fun () ->
      Array.iter
        (fun q ->
          let s : Rtree.query_stats = query q in
          Obs_metrics.observe h_query_leaves s.Rtree.leaf_visited;
          Obs_metrics.observe h_query_matched s.Rtree.matched;
          leaves := !leaves + s.Rtree.leaf_visited;
          matched := !matched + s.Rtree.matched)
        queries);
  let mean_leaves = float_of_int !leaves /. float_of_int n in
  let mean_output = float_of_int !matched /. float_of_int n in
  let ideal = mean_output /. float_of_int capacity in
  {
    mean_leaves;
    mean_output;
    relative = (if ideal > 0.0 then mean_leaves /. ideal else Float.nan);
    leaves_total = !leaves;
    matched_total = !matched;
  }

let measure_queries tree queries = measure_queries_by (Rtree.query_count tree) queries

(* Build each variant on [entries] (in memory) and report the relative
   query cost per variant for each query batch in [batches]; the
   backbone of Figures 12-15. *)
let query_experiment ?(variants = paper_variants) entries batches =
  let trees =
    List.map
      (fun v ->
        let pool = fresh_pool () in
        (v, build_mem v pool entries))
      variants
  in
  List.map
    (fun (label, queries) ->
      (label, List.map (fun (v, tree) -> (v, measure_queries tree queries)) trees))
    batches

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

let commas n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let section title =
  Printf.printf "\n== %s ==\n%!" title

let degraded_banner () =
  if fault_rate > 0.0 then
    Printf.printf "   (degraded mode: injecting faults at rate %.1f%%, seed %d)\n%!"
      (100.0 *. fault_rate) fault_seed

(* An Lsm store's component ladder as "level:entries,..." ("-" when
   empty), the [levels] field of the BENCH_ingest and BENCH_logm rows. *)
let levels_label st =
  match st.Prt_logmethod.Lsm.s_components with
  | [] -> "-"
  | comps ->
      String.concat ","
        (List.map (fun (lvl, n, _) -> Printf.sprintf "%d:%d" lvl n) comps)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* A fresh directory for an on-disk store, removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "prt_bench" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt
