(* serve-point's index file: bulk-load a PR-tree into a fresh index
   file on the default backend, timing the loader apart from the rest
   of [Index_file.create], and read its storage and descent counts. *)

module Index_file = Prt_rtree.Index_file
module Pager = Prt_storage.Pager
module Mmap_pager = Prt_storage.Mmap_pager

let create r path data =
  Bench.remove_tree path;
  let load_ns = ref 0 in
  let idx, create_ns =
    Bench.timed (fun () ->
        Index_file.create path ~build:(fun pool ->
            let tree, ns = Bench.timed (fun () -> Prt_prtree.Prtree.load pool data) in
            load_ns := ns;
            tree))
  in
  Bench.sample r "prtree.load_s" (Clock.s !load_ns);
  Bench.sample r "index_file.create_s" (Clock.s (create_ns - !load_ns));
  let payload = float_of_int (Array.length data * Bench.entry_bytes) in
  let pager = Index_file.pager idx in
  let written = (Pager.stats pager).Pager.writes in
  Bench.set r "storage.pages_written" (float_of_int written);
  Bench.set r "write_amp" (float_of_int (written * Pager.page_size pager) /. payload);
  Bench.set r "space_amp" (float_of_int (Bench.file_bytes path) /. payload);
  idx

let mmap_counters idx =
  match Index_file.mmap_counters idx with
  | Some c -> c
  | None -> failwith "index file is not on the mmap backend"

(* The mmap page counts a pass of [queries] queries moved. *)
let record_mmap r idx ~before ~queries =
  let c = mmap_counters idx in
  Bench.set r "storage.mmap_pages_per_query"
    (float_of_int (c.Mmap_pager.c_windows_served - before.Mmap_pager.c_windows_served)
    /. float_of_int queries);
  Bench.set r "storage.mmap_crc_sweeps" (float_of_int c.Mmap_pager.c_crc_verified)

(* The per-query descent counts of a pass of [queries] windows. *)
let record_descents r ~queries ~leaves ~internal ~results ~capacity =
  let q = float_of_int queries in
  Bench.set r "leaf_reads_per_query" (float_of_int leaves /. q);
  Bench.set r "rtree.internal_reads_per_query" (float_of_int internal /. q);
  Bench.set r "rtree.results_per_query" (float_of_int results /. q);
  Bench.set r "rtree.leaf_yield" (float_of_int results /. float_of_int (leaves * capacity))

let close idx path =
  Index_file.close idx;
  Bench.remove_tree path
