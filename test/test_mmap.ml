(* The mmap read backend: byte-identical results across backends, CRC
   parity between the mapped verifier and the page codec, counter and
   reporting surfaces, and graceful degradation on the mapped path.

   The headline property is cross-backend equivalence: for the same
   committed file, [query(mmap) = query(pread) = in-memory oracle] —
   entry for entry, in the same order — for sequential descents,
   multicore executor batches, and snapshot-pinned reads racing
   commits.  All randomized cases print a `PRT_QCHECK_SEED=...`
   repro. *)

module Rect = Prt_geom.Rect
module Page = Prt_storage.Page
module View = Prt_storage.View
module Pager = Prt_storage.Pager
module Mmap_pager = Prt_storage.Mmap_pager
module Quarantine = Prt_storage.Quarantine
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Query = Prt_rtree.Query
module Dynamic = Prt_rtree.Dynamic
module Index_file = Prt_rtree.Index_file
module Qexec = Prt_rtree.Qexec
module Prtree = Prt_prtree.Prtree

let page_size = Helpers.small_page_size

let with_temp f =
  let path = Filename.temp_file "prt_mmap" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let create_index ?backend path entries =
  Index_file.create ~page_size ?backend path ~build:(fun pool -> Prtree.load pool entries)

let everything = Rect.make ~xmin:(-1e9) ~ymin:(-1e9) ~xmax:1e9 ~ymax:1e9

(* Exact result lists (id + rect, in delivery order), not just id
   multisets: the backends must agree on order too, since both claim
   the same preorder descent. *)
let results_of tree window =
  let acc = ref [] in
  ignore (Rtree.query_unrecorded tree window ~f:(fun e -> acc := e :: !acc));
  List.rev_map (fun e -> (Entry.id e, Entry.rect e)) !acc |> List.rev

(* --- CRC parity: the mapped verifier must accept exactly the pages
   the page codec wrote --- *)

(* Bitwise CRC-32C (reflected 0x82F63B78), one byte at a time: the
   reference the kernel must match on both of its paths. *)
let reference_crc32c b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

(* The bytes as a mapped window: float64 words, little-endian, the
   last one zero-padded. *)
let map_of_bytes b =
  let words = (Bytes.length b + 7) / 8 in
  let padded = Bytes.extend b 0 ((8 * words) - Bytes.length b) in
  Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout words (fun k ->
      Int64.float_of_bits (Bytes.get_int64_le padded (8 * k)))

let test_crc_parity () =
  let rng = Random.State.make [| 987 |] in
  let b = Bytes.init (65_536 + 8) (fun _ -> Char.chr (Random.State.int rng 256)) in
  let m = map_of_bytes b in
  (* Over bytes and over the mapping, and through the kernel's table
     path, which a host with the CRC-32C instruction takes only here. *)
  let check ~pos ~len =
    let expected = reference_crc32c b ~pos ~len in
    let name what = Printf.sprintf "%s pos %d len %d" what pos len in
    Alcotest.(check int) (name "Page.crc32c") expected (Page.crc32c b ~pos ~len);
    Alcotest.(check int) (name "View.crc32c") expected (View.crc32c m ~pos ~len);
    Alcotest.(check int) (name "table path") expected (Page.crc32c_table b ~pos ~len)
  in
  (* Every alignment of the 8-byte steps, with every tail length; then
     a page's payload (the range the trailer covers), a whole page and
     sixteen pages at every alignment. *)
  for pos = 0 to 7 do
    for len = 0 to 100 do
      check ~pos ~len
    done;
    List.iter (fun len -> check ~pos ~len) [ 4092; 4096; 65_536 ]
  done;
  (* The kernel checks no bounds; the OCaml wrappers refuse a range
     that is not inside the buffer. *)
  let n = Bytes.length b in
  List.iter
    (fun (pos, len) ->
      let refused what f =
        Alcotest.check_raises
          (Printf.sprintf "%s refuses pos %d len %d" what pos len)
          (Invalid_argument what)
          (fun () -> ignore (f ~pos ~len))
      in
      refused "Page.crc32c" (Page.crc32c b);
      refused "Page.crc32c_table" (Page.crc32c_table b);
      refused "View.crc32c" (View.crc32c m))
    [ (n - 3, 4); (0, n + 1); (n + 1, 0); (-1, 4); (0, -1); (max_int, 8) ];
  (* Integer-load parity over sign/top-bit boundaries.  0x40000000 is
     the regression that motivated this: on 63-bit native ints a
     32-place shift parks bit 30 on the sign bit, so a u32 with bit 30
     set read back +2^31 too large and every CRC-verify of such a page
     failed. *)
  let probes =
    [ 0l; 1l; -1l; Int32.max_int; Int32.min_int; 0x40000000l; 0x7D3CC132l;
      0x80000001l; 0xC0000000l; 0x12345678l ]
  in
  (* Every byte position of a word, the ones whose field crosses into
     the next word included. *)
  List.iter
    (fun v ->
      for off = 0 to 8 do
        let b = Bytes.make 16 '\000' in
        Bytes.set_int32_le b off v;
        let m = map_of_bytes b in
        Alcotest.(check int)
          (Printf.sprintf "get_i32 parity for %ld at %d" v off)
          (Int32.to_int v) (View.get_i32 m off);
        Alcotest.(check int)
          (Printf.sprintf "get_u16 parity for %ld at %d" v off)
          (Bytes.get_uint16_le b off) (View.get_u16 m off);
        Alcotest.(check int)
          (Printf.sprintf "get_u8 parity for %ld at %d" v off)
          (Bytes.get_uint8 b off) (View.get_u8 m off)
      done)
    probes

(* --- cross-backend equivalence --- *)

(* One committed file, opened under each backend (plus the still-open
   creating handle): every window query must return byte-identical
   results, and both must equal the brute-force oracle. *)
let qcheck_backends_agree =
  let count = if Helpers.long_run then 300 else 40 in
  QCheck.Test.make ~count ~name:"mmap: query(mmap) = query(pread) = oracle"
    (Helpers.arbitrary_scenario ~min_size:0 ~max_size:600 ())
    (fun sc ->
      with_temp @@ fun path ->
      let entries = Helpers.random_entries ~n:sc.Helpers.sc_size ~seed:sc.Helpers.sc_seed in
      let queries = Array.append [| everything |] (Helpers.random_queries ~n:12 ~seed:(sc.Helpers.sc_seed + 1)) in
      let idx0 = create_index ~backend:`Mmap path entries in
      let mmap_results = Array.map (results_of (Index_file.tree idx0)) queries in
      if Array.length entries > 0 && Index_file.read_backend idx0 = "mmap" then begin
        let c = Option.get (Index_file.mmap_counters idx0) in
        if c.Mmap_pager.c_windows_served = 0 then
          QCheck.Test.fail_report "mmap backend active but no mapped scans served"
      end;
      Index_file.close idx0;
      let idx1 = Index_file.open_ ~page_size ~backend:`Pread path in
      let pread_results = Array.map (results_of (Index_file.tree idx1)) queries in
      Index_file.close idx1;
      Array.iteri
        (fun i w ->
          if mmap_results.(i) <> pread_results.(i) then
            QCheck.Test.fail_report (Printf.sprintf "query %d: mmap and pread disagree" i);
          let oracle = Helpers.brute_force entries w in
          let got = List.sort Int.compare (List.map fst mmap_results.(i)) in
          if got <> oracle then
            QCheck.Test.fail_report
              (Printf.sprintf "query %d: backends agree but differ from the oracle" i))
        queries;
      true)

(* The executor path: batches on N domains under each backend return
   identical results (the mapped path shares one mapping across worker
   domains with no per-domain state). *)
let qcheck_qexec_backends_agree =
  let count = if Helpers.long_run then 150 else 25 in
  QCheck.Test.make ~count ~name:"mmap: executor batches agree across backends and jobs"
    (QCheck.pair
       (Helpers.arbitrary_scenario ~min_size:0 ~max_size:400 ())
       (QCheck.oneofl ~print:string_of_int [ 1; 2; 4 ]))
    (fun (sc, jobs) ->
      with_temp @@ fun path ->
      let entries = Helpers.random_entries ~n:sc.Helpers.sc_size ~seed:sc.Helpers.sc_seed in
      let queries = Helpers.random_queries ~n:10 ~seed:(sc.Helpers.sc_seed + 2) in
      let run backend =
        let idx = Index_file.open_ ~page_size ~backend path in
        Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
        let r = Qexec.run ~jobs (Index_file.executor idx) queries in
        Array.map (fun (hits, _) -> List.map (fun e -> (Entry.id e, Entry.rect e)) hits) r
      in
      let idx0 = create_index path entries in
      Index_file.close idx0;
      let m = run `Mmap and p = run `Pread in
      if m <> p then QCheck.Test.fail_report "executor batch differs across backends";
      Array.iteri
        (fun i w ->
          let got = List.sort Int.compare (List.map fst m.(i)) in
          if got <> Helpers.brute_force entries w then
            QCheck.Test.fail_report (Printf.sprintf "batch query %d differs from the oracle" i))
        queries;
      true)

(* Snapshot-pinned reads under each backend: pin, commit overwrites on
   top, and the pinned read must keep answering the pinned tree —
   through retained images where the mapping has moved on. *)
let qcheck_snapshot_backends_agree =
  let count = if Helpers.long_run then 150 else 25 in
  QCheck.Test.make ~count ~name:"mmap: snapshot-pinned reads agree across backends"
    (Helpers.arbitrary_scenario ~min_size:10 ~max_size:300 ())
    (fun sc ->
      let entries = Helpers.random_entries ~n:sc.Helpers.sc_size ~seed:sc.Helpers.sc_seed in
      let pre = Helpers.brute_force entries everything in
      let extra j =
        let x = 0.1 +. (0.08 *. float_of_int j) in
        Entry.make (Rect.make ~xmin:x ~ymin:x ~xmax:(x +. 0.01) ~ymax:(x +. 0.01)) (1_000_000 + j)
      in
      let run backend =
        with_temp @@ fun path ->
        let idx = create_index ~backend path entries in
        Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
        let s = Index_file.snapshot idx in
        for j = 0 to 4 do
          Index_file.update idx (fun tree -> Dynamic.insert tree (extra j))
        done;
        let sv = Index_file.snapshot_view s in
        let pinned =
          Helpers.ids_of (fst (Rtree.query_list ~snapshot:sv (Index_file.tree idx) everything))
        in
        let live = Helpers.ids_of (fst (Rtree.query_list (Index_file.tree idx) everything)) in
        Index_file.release_snapshot s;
        (pinned, live)
      in
      let pm, lm = run `Mmap and pp, lp = run `Pread in
      if pm <> pre then QCheck.Test.fail_report "mmap pinned read is not the pinned tree";
      if pp <> pre then QCheck.Test.fail_report "pread pinned read is not the pinned tree";
      if lm <> lp then QCheck.Test.fail_report "live reads disagree across backends";
      true)

(* --- update visibility and CRC memo refresh --- *)

(* Commits through the mmap-backed handle must be visible to the next
   mapped query (refresh retags the CRC memo; no stale pre-commit
   verification may survive), and the executor must see them too —
   the mmap twin of test_qexec's pread shard-cache case. *)
let test_update_visibility_mmap () =
  with_temp @@ fun path ->
  let entries = Helpers.random_entries ~n:250 ~seed:77 in
  let idx = create_index ~backend:`Mmap path entries in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  Alcotest.(check string) "mmap active" "mmap" (Index_file.read_backend idx);
  let exec = Index_file.executor idx in
  let pre = Helpers.brute_force entries everything in
  let r1 = Qexec.run ~jobs:2 exec [| everything |] in
  Alcotest.(check (list int)) "batch pre-update" pre (Helpers.ids_of (fst r1.(0)));
  let e = Entry.make (Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.5 ~ymax:0.5) 999_999 in
  Index_file.update idx (fun tree -> Dynamic.insert tree e);
  let post = List.sort Int.compare (999_999 :: pre) in
  Alcotest.(check (list int)) "sequential query sees the commit" post
    (Helpers.ids_of (fst (Rtree.query_list (Index_file.tree idx) everything)));
  let r2 = Qexec.run ~jobs:2 exec [| everything |] in
  Alcotest.(check (list int)) "batch sees the commit" post (Helpers.ids_of (fst r2.(0)));
  (* Another round: the memo was refreshed, so mapped pages re-verify
     against the committed bytes (crc_verified grows again). *)
  let c = Option.get (Index_file.mmap_counters idx) in
  Alcotest.(check bool) "mapped scans served" true (c.Mmap_pager.c_windows_served > 0)

(* The second identical query must skip every CRC sweep via the
   per-generation memo. *)
let test_crc_verified_once_per_generation () =
  with_temp @@ fun path ->
  let entries = Helpers.random_entries ~n:300 ~seed:55 in
  let idx = create_index ~backend:`Mmap path entries in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  let tree = Index_file.tree idx in
  ignore (Rtree.query_list tree everything);
  let c1 = Option.get (Index_file.mmap_counters idx) in
  Alcotest.(check bool) "first pass runs CRC sweeps" true (c1.Mmap_pager.c_crc_verified > 0);
  ignore (Rtree.query_list tree everything);
  let c2 = Option.get (Index_file.mmap_counters idx) in
  Alcotest.(check int) "second pass runs no new sweeps" c1.Mmap_pager.c_crc_verified
    c2.Mmap_pager.c_crc_verified;
  Alcotest.(check bool) "second pass skips via the memo" true
    (c2.Mmap_pager.c_crc_skipped > c1.Mmap_pager.c_crc_skipped)

(* --- allocation-free query surface --- *)

(* [query_into] must agree with [query_list] entry for entry on the
   mapped path, and reusing one buffer across windows must not leak
   results between queries. *)
let test_query_into_agrees () =
  with_temp @@ fun path ->
  let entries = Helpers.random_entries ~n:400 ~seed:91 in
  let idx = create_index ~backend:`Mmap path entries in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  let tree = Index_file.tree idx in
  let h = Rtree.hits_make () in
  Array.iter
    (fun w ->
      let expect, stats = Rtree.query_list tree w in
      Rtree.query_into tree w ~into:h;
      Alcotest.(check int) "same count" (List.length expect) (Rtree.hits_length h);
      List.iteri
        (fun i e ->
          let got = Rtree.hits_get h i in
          Alcotest.(check int) "same id" (Entry.id e) (Entry.id got);
          Alcotest.(check bool) "same rect" true (Rect.equal (Entry.rect e) (Entry.rect got)))
        expect;
      Alcotest.(check int) "same matched" stats.Rtree.matched
        (Rtree.hits_stats h).Rtree.matched;
      Alcotest.(check int) "same leaves" stats.Rtree.leaf_visited
        (Rtree.hits_stats h).Rtree.leaf_visited)
    (Array.append [| everything |] (Helpers.random_queries ~n:20 ~seed:92))

(* The filtered descents (stabbing/enclosed/covering/exists) run the
   same engine on the mapping and on the pool: full result lists in
   delivery order and their visit statistics must agree, so a changed
   visit order or visit count fails, not just a changed answer. *)
let test_query_forms_agree () =
  with_temp @@ fun path ->
  let entries = Helpers.random_entries ~n:350 ~seed:137 in
  let idx0 = create_index path entries in
  Index_file.close idx0;
  let run backend =
    let idx = Index_file.open_ ~page_size ~backend path in
    Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
    let tree = Index_file.tree idx in
    let windows = Helpers.random_queries ~n:15 ~seed:138 in
    let results =
      Array.to_list windows
      |> List.map (fun w ->
             ( Query.enclosed_list tree w,
               Query.covering_list tree w,
               Query.stabbing_list tree ~x:(Rect.xmin w) ~y:(Rect.ymin w),
               Query.exists tree w ))
    in
    (match Index_file.mmap_counters idx with
    | Some c ->
        Alcotest.(check bool) "the mapping served the forms" true (c.Mmap_pager.c_windows_served > 0)
    | None -> Alcotest.(check bool) "pread has no mapping" true (backend = `Pread));
    results
  in
  let mapped = run `Mmap and pread = run `Pread in
  List.iteri
    (fun i ((e1, c1, s1, x1), (e2, c2, s2, x2)) ->
      let same name (l1, st1) (l2, st2) =
        Alcotest.(check bool) (Printf.sprintf "window %d: %s results in order" i name) true (l1 = l2);
        Alcotest.(check bool) (Printf.sprintf "window %d: %s query_stats" i name) true (st1 = st2)
      in
      same "enclosed" e1 e2;
      same "covering" c1 c2;
      same "stabbing" s1 s2;
      Alcotest.(check bool) (Printf.sprintf "window %d: exists" i) x1 x2)
    (List.combine mapped pread);
  (* The forms must visit something on this tree, or the statistics
     comparison above proves nothing. *)
  Alcotest.(check bool) "enclosed descends" true
    (List.exists (fun ((_, st), _, _, _) -> st.Rtree.leaf_visited > 0) mapped)

(* --- degradation on the mapped path --- *)

let corrupt_page_on_disk path id =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd ((id * page_size) + 64) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 16 '\171') 0 16))

(* On-disk damage under mmap: the CRC gate refuses the mapped page, the
   descent falls back to pread, the pread read quarantines it, and the
   query degrades to a Partial answer — never a raise, never garbage. *)
let test_mapped_damage_degrades () =
  with_temp @@ fun path ->
  let entries = Helpers.random_entries ~n:400 ~seed:23 in
  let oracle = Helpers.brute_force entries everything in
  let idx0 = create_index path entries in
  let victim =
    let tree = Index_file.tree idx0 in
    let height = Rtree.height tree in
    let acc = ref [] in
    Rtree.iter_nodes tree ~f:(fun ~depth ~id _ -> if depth = height then acc := id :: !acc);
    List.hd (List.rev !acc)
  in
  Index_file.close idx0;
  corrupt_page_on_disk path victim;
  let idx = Index_file.open_ ~page_size ~backend:`Mmap path in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  Alcotest.(check string) "mmap active" "mmap" (Index_file.read_backend idx);
  let q = Index_file.quarantine idx in
  let hits, stats = Rtree.query_list ~quarantine:q (Index_file.tree idx) everything in
  Alcotest.(check bool) "degraded, not failed" false (Rtree.complete stats);
  List.iter
    (fun e -> Alcotest.(check bool) "subset of oracle" true (List.mem (Entry.id e) oracle))
    hits;
  Alcotest.(check bool) "victim quarantined" true (Quarantine.mem q victim);
  let c = Option.get (Index_file.mmap_counters idx) in
  Alcotest.(check bool) "fallback counted" true (c.Mmap_pager.c_fallbacks > 0)

(* --- backend policy --- *)

let test_backend_policy () =
  with_temp @@ fun path ->
  let entries = Helpers.random_entries ~n:100 ~seed:5 in
  let idx0 = create_index path entries in
  Alcotest.(check string) "auto picks mmap on a mappable file" "mmap"
    (Index_file.read_backend idx0);
  Index_file.close idx0;
  let idx = Index_file.open_ ~page_size ~backend:`Pread path in
  Alcotest.(check string) "pread opts out" "pread" (Index_file.read_backend idx);
  Alcotest.(check bool) "no counters on pread" true (Index_file.mmap_counters idx = None);
  Index_file.close idx;
  (* Auto with a crash failpoint stays on pread so fault injection
     keeps intercepting reads. *)
  let fp = Prt_storage.Failpoint.create Prt_storage.Failpoint.default in
  let idx = Index_file.open_ ~page_size ~crash:fp path in
  Alcotest.(check string) "auto + failpoint stays pread" "pread" (Index_file.read_backend idx);
  Index_file.close idx

let suite =
  [
    Alcotest.test_case "crc32c: View and Page agree bit for bit" `Quick test_crc_parity;
    Helpers.qcheck_case qcheck_backends_agree;
    Helpers.qcheck_case qcheck_qexec_backends_agree;
    Helpers.qcheck_case qcheck_snapshot_backends_agree;
    Alcotest.test_case "commits visible through the mapped path" `Quick
      test_update_visibility_mmap;
    Alcotest.test_case "CRC verified once per (page, generation)" `Quick
      test_crc_verified_once_per_generation;
    Alcotest.test_case "query_into agrees with query_list" `Quick test_query_into_agrees;
    Alcotest.test_case "filtered query forms agree across backends" `Quick
      test_query_forms_agree;
    Alcotest.test_case "on-disk damage degrades the mapped path" `Quick
      test_mapped_damage_degrades;
    Alcotest.test_case "backend policy: auto, pread, failpoint" `Quick test_backend_policy;
  ]
