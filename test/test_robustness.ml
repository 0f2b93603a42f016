(* Robustness and failure-injection tests: corrupted pages must be
   detected, not silently misread; caches under extreme pressure must
   stay coherent; file-backed indexes must survive close/reopen. *)

module Rect = Prt_geom.Rect
module Page = Prt_storage.Page
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Rtree = Prt_rtree.Rtree
module Dynamic = Prt_rtree.Dynamic
module Audit = Prt_rtree.Audit
module Index_file = Prt_rtree.Index_file

let with_temp_file f =
  let path = Filename.temp_file "prt_robust" ".pages" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- corruption detection --- *)

(* Smash one header field of the root in the pager, bypassing the
   cache: a cold pool must refuse the page, never answer from it. *)
let check_corrupt_root_refused mutate =
  let pool = Helpers.small_pool () in
  let entries = Helpers.random_entries ~n:100 ~seed:1 in
  let tree = Prt_prtree.Prtree.load pool entries in
  Buffer_pool.flush pool;
  let pager = Buffer_pool.pager pool in
  let buf = Pager.read pager (Rtree.root tree) in
  mutate buf;
  Pager.write pager (Rtree.root tree) buf;
  let cold = Buffer_pool.create ~capacity:8 pager in
  let reopened =
    Rtree.of_root ~pool:cold ~root:(Rtree.root tree) ~height:(Rtree.height tree)
      ~count:(Rtree.count tree)
  in
  Alcotest.(check bool) "decode raises" true
    (try
       ignore (Rtree.query_count reopened (Rect.point 0.5 0.5));
       false
     with Invalid_argument _ -> true)

let test_corrupt_kind_byte () =
  check_corrupt_root_refused (fun buf ->
      Page.set_u8 buf (Node.kind_offset ~page_size:(Bytes.length buf)) 7)

(* A count past the capacity would walk the scan into the next column. *)
let test_corrupt_count () =
  check_corrupt_root_refused (fun buf ->
      let page_size = Bytes.length buf in
      Page.set_u16 buf (Node.count_offset ~page_size) (Node.capacity ~page_size + 1))

let test_corrupt_child_pointer_detected () =
  let pool = Helpers.small_pool () in
  let entries = Helpers.random_entries ~n:400 ~seed:2 in
  let tree = Prt_prtree.Prtree.load pool entries in
  (* Point the root's first child at a leaf page that is not its child:
     validation must notice the MBR mismatch. *)
  let root_node = Rtree.read_node tree (Rtree.root tree) in
  Alcotest.(check bool) "multi-level tree" true (Node.kind root_node = Node.Internal);
  let root_entries = Node.entries root_node in
  let a = root_entries.(0) and b = root_entries.(1) in
  root_entries.(0) <- Entry.make (Entry.rect a) (Entry.id b);
  Rtree.write_node tree (Rtree.root tree) (Node.make Node.Internal root_entries);
  Alcotest.(check bool) "validate raises" true
    (try
       ignore (Audit.validate tree);
       false
     with Audit.Invalid _ -> true)

(* A one-leaf tree whose leaf holds a NaN entry (which [Rect.make]
   refuses on decode), written through [alloc_node] below [Dynamic]'s
   guard; returns the tree and the leaf's page. *)
let nan_leaf_tree () =
  let tree = Rtree.create_empty (Helpers.small_pool ()) in
  let nan_rect = Rect.of_corners (Float.nan, 0.5) (0.6, 0.6) in
  let leaf = Rtree.alloc_node tree (Node.make Node.Leaf [| Entry.make nan_rect 7000 |]) in
  Rtree.set_root tree ~root:leaf ~height:1;
  Rtree.set_count tree 1;
  (tree, leaf)

(* A page that does not decode is named by [validate], as [Audit]
   names it, instead of an [Invalid_argument] escaping. *)
let test_validate_names_decode_error () =
  let tree, leaf = nan_leaf_tree () in
  match Audit.validate tree with
  | _ -> Alcotest.fail "validate accepted a page that does not decode"
  | exception Audit.Invalid v ->
      Alcotest.(check (pair string string))
        "named by Audit's label"
        ("decode-error", Printf.sprintf "page %d" leaf)
        (Audit.label v.Audit.what, v.Audit.where)

(* The walkers that decode through [Rtree.read_node] name the same
   page in a [Corrupt_page], as the pager names a torn one, so the CLI's
   [knn], [insert] and [delete] refuse the index and exit 2. *)
let test_read_node_names_decode_error () =
  let tree, leaf = nan_leaf_tree () in
  let prefix = Printf.sprintf "page %d does not decode: " leaf in
  let named what f =
    match f () with
    | () -> Alcotest.failf "%s read a page that does not decode" what
    | exception Pager.Corrupt_page msg ->
        Alcotest.(check string)
          (what ^ " names the page") prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  let point = Entry.make (Rect.point 0.5 0.5) 1 in
  named "Knn.nearest" (fun () -> ignore (Prt_rtree.Knn.nearest tree ~x:0.5 ~y:0.5 ~k:1));
  named "Dynamic.insert" (fun () -> Dynamic.insert tree point);
  named "Dynamic.delete" (fun () -> ignore (Dynamic.delete tree point))

(* [Dynamic.insert] refuses such a rectangle before touching a page,
   also after an ordinary insert (the CLI's reproduction: without the
   guard, that NaN insert succeeds and a whole-world query then misses
   entries): the tree answers and validates as before. *)
let test_insert_refuses_nan () =
  let pool = Helpers.small_pool () in
  let entries =
    Array.append
      (Helpers.random_entries ~n:300 ~seed:3)
      [| Entry.make (Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0) 5000 |]
  in
  let tree = Prt_prtree.Prtree.load pool (Array.sub entries 0 300) in
  Dynamic.insert tree entries.(300);
  Buffer_pool.flush pool;
  (match Dynamic.insert tree (Entry.make (Rect.of_corners (Float.nan, 0.5) (0.6, 0.6)) 7000) with
  | () -> Alcotest.fail "a NaN rectangle was inserted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "refused by the guard" "Dynamic.insert" (String.sub msg 0 14));
  Alcotest.(check bool) "no page written" true (Buffer_pool.is_clean pool);
  Alcotest.(check int) "count unchanged" 301 (Rtree.count tree);
  ignore (Audit.validate tree);
  Helpers.check_tree_queries ~seed:4 tree entries

let test_truncated_index_file () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "this is not a multiple of the page size";
      close_out oc;
      Alcotest.(check bool) "open_file raises" true
        (try
           ignore (Pager.open_file path);
           false
         with Invalid_argument _ -> true))

let test_load_meta_garbage () =
  let pool = Helpers.small_pool () in
  Alcotest.(check bool) "bad magic raises" true
    (try
       ignore (Index_file.decode_meta pool (Bytes.make 20 '\042'));
       false
     with Invalid_argument _ -> true)

(* --- cache pressure --- *)

let test_query_correct_under_tiny_cache () =
  (* A 2-page cache forces constant eviction during both build and
     query; results must be identical to the brute-force oracle. *)
  let pager = Pager.create_memory ~page_size:Helpers.small_page_size () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let entries = Helpers.random_entries ~n:500 ~seed:3 in
  let tree = Prt_rtree.Bulk_hilbert.load_h pool entries in
  ignore (Helpers.check_structure tree);
  Helpers.check_tree_queries ~seed:4 tree entries

let test_updates_correct_under_tiny_cache () =
  let pager = Pager.create_memory ~page_size:Helpers.small_page_size () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let tree = Rtree.create_empty pool in
  let entries = Helpers.random_entries ~n:200 ~seed:5 in
  Array.iter (Dynamic.insert tree) entries;
  Array.iteri (fun i e -> if i mod 2 = 0 then ignore (Dynamic.delete tree e)) entries;
  ignore (Helpers.check_structure tree);
  let survivors =
    Array.of_list (Array.to_list entries |> List.filteri (fun i _ -> i mod 2 = 1))
  in
  Helpers.check_tree_queries ~seed:6 tree survivors

(* --- file-backed persistence --- *)

let test_file_backed_tree_roundtrip () =
  with_temp_file (fun path ->
      let entries = Helpers.random_entries ~n:300 ~seed:9 in
      (* Build and persist. *)
      Index_file.close
        (Index_file.create ~page_size:Helpers.small_page_size path ~build:(fun pool ->
             Prt_prtree.Prtree.load pool entries));
      (* Reopen cold and verify. *)
      let idx = Index_file.open_ ~page_size:Helpers.small_page_size path in
      let tree = Index_file.tree idx in
      Alcotest.(check int) "count" 300 (Rtree.count tree);
      ignore (Helpers.check_structure tree);
      Helpers.check_tree_queries ~seed:10 tree entries;
      Index_file.close idx)

let test_file_backed_updates_persist () =
  with_temp_file (fun path ->
      let entries = Helpers.random_entries ~n:100 ~seed:11 in
      let extra = Entry.make (Rect.point 0.123 0.456) 999 in
      let idx =
        Index_file.create ~page_size:Helpers.small_page_size path ~build:(fun pool ->
            Prt_rtree.Bulk_hilbert.load_h pool entries)
      in
      Index_file.update idx (fun tree ->
          Dynamic.insert tree extra;
          ignore (Dynamic.delete tree entries.(0)));
      Index_file.close idx;
      let idx = Index_file.open_ ~page_size:Helpers.small_page_size path in
      let tree = Index_file.tree idx in
      Alcotest.(check int) "count survived" 100 (Rtree.count tree);
      let hits, _ = Rtree.query_list tree (Rect.point 0.123 0.456) in
      Alcotest.(check bool) "inserted entry present" true
        (List.exists (fun e -> Entry.id e = 999) hits);
      let hits, _ = Rtree.query_list tree (Entry.rect entries.(0)) in
      Alcotest.(check bool) "deleted entry gone" false
        (List.exists (fun e -> Entry.id e = Entry.id entries.(0)) hits);
      Index_file.close idx)

(* --- odd record geometries in the extsort layer --- *)

module Odd_record = struct
  type t = int * int

  let size = 12 (* 64-byte pages hold 5 with 4 bytes of slack *)

  let write buf off (a, b) =
    Page.set_i32 buf off a;
    Bytes.set_int64_le buf (off + 4) (Int64.of_int b)

  let read buf off = (Page.get_i32 buf off, Int64.to_int (Bytes.get_int64_le buf (off + 4)))
end

module Odd_file = Prt_extsort.Record_file.Make (Odd_record)

let test_extsort_odd_record_size () =
  let pager = Pager.create_memory ~page_size:64 () in
  let values = Array.init 123 (fun i -> ((i * 7) mod 31, i)) in
  let file = Odd_file.of_array pager values in
  Alcotest.(check bool) "roundtrip" true (Odd_file.read_all file = values);
  let sorted = Odd_file.sort ~mem_records:20 ~cmp:compare file in
  let expected = Array.copy values in
  Array.sort compare expected;
  Alcotest.(check bool) "sorted" true (Odd_file.read_all sorted = expected)

let suite =
  [
    Alcotest.test_case "corrupt kind byte detected" `Quick test_corrupt_kind_byte;
    Alcotest.test_case "corrupt child pointer detected" `Quick
      test_corrupt_child_pointer_detected;
    Alcotest.test_case "truncated index file rejected" `Quick test_truncated_index_file;
    Alcotest.test_case "garbage metadata rejected" `Quick test_load_meta_garbage;
    Alcotest.test_case "queries correct under 2-page cache" `Quick
      test_query_correct_under_tiny_cache;
    Alcotest.test_case "updates correct under 2-page cache" `Quick
      test_updates_correct_under_tiny_cache;
    Alcotest.test_case "file-backed tree roundtrip" `Quick test_file_backed_tree_roundtrip;
    Alcotest.test_case "file-backed updates persist" `Quick test_file_backed_updates_persist;
    Alcotest.test_case "extsort with page slack" `Quick test_extsort_odd_record_size;
    Alcotest.test_case "corrupt entry count detected" `Quick test_corrupt_count;
    Alcotest.test_case "validate names a page that does not decode" `Quick
      test_validate_names_decode_error;
    Alcotest.test_case "knn, insert and delete name a page that does not decode" `Quick
      test_read_node_names_decode_error;
    Alcotest.test_case "insert refuses a NaN rectangle" `Quick test_insert_refuses_nan;
  ]
