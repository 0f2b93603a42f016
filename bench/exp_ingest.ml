(* Crash-safe LSM ingestion: write amplification, merge scheduling and
   recovery of the persistent logarithmic method, each counted
   exactly.

   Three phases over a fresh on-disk store (lib/logmethod/lsm.ml):

   - ingest: N entries inserted into an empty directory with inline
     merges, once per WAL sync mode (`Always fsyncs every insert, so
     acknowledged = durable; `Never leaves durability to replay).  The
     deterministic columns — final entry count, component count and
     per-level histogram, merge count, write amplification
     (WAL bytes + component pages written / payload bytes acked) — are
     identical across sync modes and gated against the committed
     baseline.

   - concurrent: the same ingest with background merges while reader
     domains run window queries the whole time.  Every sampled result
     is checked on the spot: ids in range, no duplicates within a
     result, and an honest Complete label — during merge publication a
     phantom (entry seen in both the sealed buffer and the freshly
     published component) or a dropped entry would trip it.

   - replay: the `Never store is closed with its tail still buffered
     (durable only in the WAL), then reopened.  The replayed-record
     count, reclaimed-orphan count (zero: clean shutdown leaves no
     debris) and recovered entry count gate exactly.

   Insert and query rates are perfbench's ingest-mixed workload (see
   perfbench/README.md). *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Lsm = Prt_logmethod.Lsm
module Datasets = Prt_workloads.Datasets
module Queries = Prt_workloads.Queries
module Table = Prt_util.Table

let readers = 2

let write_amp st =
  float_of_int st.Lsm.s_bytes_written /. float_of_int (max 1 st.Lsm.s_bytes_acked)

let ingest ~scale ~seed =
  let n = max 2_000 (int_of_float (50_000.0 *. scale)) in
  let buffer = max 256 (n / 16) in
  Printf.printf "== ingest: LSM write amplification, merges, replay (%d entries) ==\n%!" n;
  let entries = Datasets.uniform_points ~n ~seed in
  let world = Queries.world_of entries in
  let windows = Queries.squares ~count:64 ~area_fraction:0.01 ~world ~seed:(seed + 1) in
  let rows = ref [] in
  let tab fields = rows := fields :: !rows in

  (* -- phase 1: solo ingest, one row per WAL sync mode -- *)
  let solo ~sync dir =
    let label = match sync with `Always -> "always" | `Never -> "never" in
    let t =
      Lsm.create ~buffer_capacity:buffer ~page_size:Common.page_size
        ~wal_sync:sync dir
    in
    Array.iter (Lsm.insert t) entries;
    let st = Lsm.stats t in
    let count = Lsm.count t in
    if count <> n then
      failwith (Printf.sprintf "ingest bench: %d of %d entries live" count n);
    Bench_json.(
      row
        [
          ("phase", str "ingest");
          ("sync", str label);
          ("n", int n);
          ("buffer", int buffer);
          ("levels", str (Common.levels_label st));
          ("entries", int count);
          ("components", int (List.length st.Lsm.s_components));
          ("merges", int st.Lsm.s_merges);
          ("write_amp", flt (write_amp st));
          ("wal_mb", flt (float_of_int st.Lsm.s_wal_bytes /. 1048576.));
        ]);
    tab
      [
        "ingest/" ^ label;
        string_of_int (List.length st.Lsm.s_components);
        string_of_int st.Lsm.s_merges;
        Printf.sprintf "%.2f" (write_amp st);
        Common.levels_label st;
      ];
    t
  in
  Common.with_temp_dir (fun dir -> Lsm.close (solo ~sync:`Always dir));

  Common.with_temp_dir @@ fun dir ->
  let t = solo ~sync:`Never dir in

  (* -- phase 3 setup rides on phase 1's `Never store: close with the
     tail of the workload still buffered, reopen, and measure what
     recovery replays. -- *)
  Lsm.close t;
  let t = Lsm.open_ ~buffer_capacity:buffer ~page_size:Common.page_size dir in
  let st = Lsm.stats t in
  let count = Lsm.count t in
  if count <> n then
    failwith (Printf.sprintf "ingest bench: replay recovered %d of %d" count n);
  Lsm.validate t;
  Bench_json.(
    row
      [
        ("phase", str "replay");
        ("n", int n);
        ("buffer", int buffer);
        ("levels", str (Common.levels_label st));
        ("replayed", int st.Lsm.s_replayed);
        ("orphans", int st.Lsm.s_orphans_reclaimed);
        ("entries", int count);
        ("components", int (List.length st.Lsm.s_components));
      ]);
  tab
    [
      "replay";
      string_of_int (List.length st.Lsm.s_components);
      "-";
      "-";
      Printf.sprintf "%d replayed" st.Lsm.s_replayed;
    ];
  Lsm.close t;

  (* -- phase 2: ingest under concurrent query load (background
     merges, reader domains oracle-checking every result) -- *)
  Common.with_temp_dir @@ fun dir ->
  let t =
    Lsm.create ~buffer_capacity:buffer ~page_size:Common.page_size
      ~wal_sync:`Never ~background:true dir
  in
  let stop = Atomic.make false in
  let reader () =
    let done_ = ref 0 and bad = ref 0 in
    while not (Atomic.get stop) do
      let w = windows.(!done_ mod Array.length windows) in
      let seen = Hashtbl.create 64 in
      let stats =
        Lsm.query t w ~f:(fun e ->
            let id = Entry.id e in
            if id < 0 || id >= n || Hashtbl.mem seen id then incr bad
            else Hashtbl.add seen id ())
      in
      if not (Rtree.complete stats) then incr bad;
      incr done_
    done;
    (!done_, !bad)
  in
  let domains = List.init readers (fun _ -> Domain.spawn reader) in
  Array.iter (Lsm.insert t) entries;
  Lsm.wait_merges t;
  Atomic.set stop true;
  let queries, bad =
    List.fold_left
      (fun (q, b) d ->
        let q', b' = Domain.join d in
        (q + q', b + b'))
      (0, 0) domains
  in
  if bad > 0 then
    failwith (Printf.sprintf "ingest bench: %d dishonest concurrent results" bad);
  let count = Lsm.count t in
  if count <> n then
    failwith (Printf.sprintf "ingest bench: %d of %d live after background run" count n);
  Bench_json.(
    row
      [
        ("phase", str "concurrent");
        ("readers", int readers);
        ("n", int n);
        ("buffer", int buffer);
        ("reader_queries", int queries);
        ("entries", int count);
      ]);
  tab
    [
      Printf.sprintf "concurrent/%dr" readers;
      "-";
      "-";
      "-";
      Printf.sprintf "%d reader queries" queries;
    ];
  Lsm.close t;
  Table.print
    ~header:[ "phase"; "comps"; "merges"; "write amp"; "notes" ]
    (List.rev !rows)
