(* The persistent LSM ingestion subsystem: durability of acknowledged
   inserts, logarithmic-method slot discipline over on-disk components,
   tombstones, WAL replay, orphan reclamation, the kill-point crash
   matrix (reopen after a simulated death at EVERY fsops / page-write
   kill point must yield exactly the acknowledged-operation set, give
   or take the single in-flight operation), the mid-merge
   abort -> reopen -> retry lifecycle, deleting an id that an aborted
   merge left sealed or that a seal added during a merge, background
   merges, a qcheck differential against an in-memory oracle under
   random insert/delete/query/flush/reopen/fault schedules, one merge
   past 50k entries, a query's uncopied tombstone snapshot, deleting
   every entry, the refusal of a NaN rectangle, and the packed buffer:
   exact answers on edge-case geometry through deletes, an aborted
   merge's coalesce and a replay, a scan that allocates nothing per
   buffered entry, a compacted component, and every component merges
   write, equal to a direct build, and what a merge allocates. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Pager = Prt_storage.Pager
module Failpoint = Prt_storage.Failpoint
module Retry = Prt_storage.Retry
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Lsm = Prt_logmethod.Lsm

let everything = Rect.make ~xmin:(-1e9) ~ymin:(-1e9) ~xmax:1e9 ~ymax:1e9

let live_ids t = Helpers.ids_of (fst (Lsm.query_list t everything))

let check_oracle ?(msg = "query matches oracle") t entries window =
  let result, stats = Lsm.query_list t window in
  Alcotest.(check (list int))
    msg
    (Helpers.brute_force entries window)
    (Helpers.ids_of result);
  Alcotest.(check bool) (msg ^ " (complete)") true (Rtree.complete stats)

(* Slot discipline: level i holds at most capacity * 2^i entries, one
   component per level. *)
let check_slots ~buffer_capacity t =
  let comps = Lsm.components t in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (level, count) ->
      Alcotest.(check bool)
        (Printf.sprintf "level %d occupied once" level)
        false (Hashtbl.mem seen level);
      Hashtbl.replace seen level ();
      Alcotest.(check bool)
        (Printf.sprintf "level %d within capacity (%d entries)" level count)
        true
        (count <= buffer_capacity * (1 lsl level) && count > 0))
    comps

(* --- basics --- *)

let test_basic () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:100 ~seed:11 in
      let t = Lsm.create dir in
      Array.iter (Lsm.insert t) entries;
      Alcotest.(check int) "count" 100 (Lsm.count t);
      Alcotest.(check int) "all buffered" 100 (Lsm.buffer_size t);
      Alcotest.(check (list (pair int int))) "no components yet" [] (Lsm.components t);
      Alcotest.check_raises "duplicate buffered id rejected"
        (Invalid_argument "Lsm.insert: duplicate entry id in buffer")
        (fun () -> Lsm.insert t (Entry.make (Rect.point 0.5 0.5) (Entry.id entries.(7))));
      Alcotest.(check int) "count after rejected duplicate" 100 (Lsm.count t);
      check_oracle t entries everything;
      Array.iter
        (fun q -> check_oracle t entries q)
        (Helpers.random_queries ~n:20 ~seed:12);
      Lsm.flush t;
      Alcotest.(check int) "count after flush" 100 (Lsm.count t);
      Alcotest.(check int) "buffer drained" 0 (Lsm.buffer_size t);
      Alcotest.(check int) "one component" 1 (List.length (Lsm.components t));
      check_oracle t entries everything;
      Lsm.validate t;
      Lsm.close t)

let test_merge_levels () =
  Helpers.with_temp_dir (fun dir ->
      let n = 100 in
      let entries = Helpers.random_entries ~n ~seed:21 in
      let t =
        Lsm.create ~buffer_capacity:8 ~page_size:Helpers.small_page_size dir
      in
      (* Logarithmically many components: at most one per doubling of
         the buffer capacity. *)
      let max_components = 1 + int_of_float (Float.log2 (float_of_int n /. 8.0)) in
      Array.iteri
        (fun i e ->
          Lsm.insert t e;
          check_slots ~buffer_capacity:8 t;
          Alcotest.(check bool) "few components" true
            (List.length (Lsm.components t) <= max_components);
          if i mod 17 = 0 then
            check_oracle ~msg:"mid-ingest query" t
              (Array.sub entries 0 (i + 1))
              everything)
        entries;
      Alcotest.(check int) "count" n (Lsm.count t);
      (* Every merge unlinks the components it absorbed. *)
      Alcotest.(check int) "one file per component" (List.length (Lsm.components t))
        (Array.fold_left
           (fun acc name -> if Filename.check_suffix name ".idx" then acc + 1 else acc)
           0 (Sys.readdir dir));
      check_oracle t entries everything;
      Array.iter
        (fun q -> check_oracle t entries q)
        (Helpers.random_queries ~n:20 ~seed:22);
      Lsm.validate t;
      Lsm.close t;
      (* Reopen: components and WAL replay reconstruct the same set. *)
      let t = Lsm.open_ ~buffer_capacity:8 ~page_size:Helpers.small_page_size dir in
      Alcotest.(check int) "count after reopen" n (Lsm.count t);
      check_oracle t entries everything;
      Lsm.validate t;
      Lsm.close t)

let test_query_batch () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:120 ~seed:31 in
      let t =
        Lsm.create ~buffer_capacity:16 ~page_size:Helpers.small_page_size dir
      in
      Array.iter (Lsm.insert t) entries;
      let windows = Helpers.random_queries ~n:12 ~seed:32 in
      let out = Lsm.query_batch ~jobs:2 t windows in
      Array.iteri
        (fun i (result, stats) ->
          Alcotest.(check (list int))
            (Printf.sprintf "batch slot %d" i)
            (Helpers.brute_force entries windows.(i))
            (Helpers.ids_of result);
          Alcotest.(check bool) "complete" true (Rtree.complete stats))
        out;
      Lsm.close t)

(* --- durability --- *)

let test_reopen_replay () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:50 ~seed:41 in
      let t = Lsm.create dir in
      Array.iter (Lsm.insert t) entries;
      Lsm.close t;
      let t = Lsm.open_ dir in
      Alcotest.(check int) "replayed" 50 (Lsm.stats t).Lsm.s_replayed;
      Alcotest.(check int) "count" 50 (Lsm.count t);
      check_oracle t entries everything;
      (* Delete a few, close, reopen: the delete records replay too. *)
      for i = 0 to 4 do
        Alcotest.(check bool) "delete acked" true (Lsm.delete t entries.(i))
      done;
      Lsm.close t;
      let t = Lsm.open_ dir in
      Alcotest.(check int) "count after deletes" 45 (Lsm.count t);
      let expected = Array.sub entries 5 45 in
      check_oracle t expected everything;
      Lsm.close t)

let test_abandoned_handle () =
  (* No close at all — the process "died" after the last acknowledged
     insert.  wal_sync:`Always means acknowledged = durable. *)
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:30 ~seed:51 in
      let t = Lsm.create ~wal_sync:`Always dir in
      Array.iter (Lsm.insert t) entries;
      let t2 = Lsm.open_ dir in
      Alcotest.(check int) "all acked present" 30 (Lsm.count t2);
      check_oracle t2 entries everything;
      Lsm.close t2;
      Lsm.close t)

let test_torn_wal_tail () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:10 ~seed:61 in
      let t = Lsm.create dir in
      Array.iter (Lsm.insert t) entries;
      Lsm.close t;
      (* Corrupt the active segment's tail two ways: a garbage length
         field, then (separately) a half-written frame. *)
      let wal =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n ->
               String.length n > 4 && String.sub n 0 4 = "wal-")
        |> List.sort compare |> List.rev |> List.hd
      in
      let path = Filename.concat dir wal in
      let append s =
        let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
        output_string oc s;
        close_out oc
      in
      append "\xff\xff\xff\xff torn garbage";
      let t = Lsm.open_ dir in
      Alcotest.(check int) "torn tail dropped" 10 (Lsm.count t);
      check_oracle t entries everything;
      Lsm.close t;
      (* The reopen rotated/truncated; tear the newest segment again
         with a plausible frame prefix (valid length, missing payload). *)
      let wal2 =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n ->
               String.length n > 4 && String.sub n 0 4 = "wal-")
        |> List.sort compare |> List.rev |> List.hd
      in
      let b = Bytes.create 8 in
      Bytes.set_int32_le b 0 37l;
      Bytes.set_int32_le b 4 0xDEADl;
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir wal2)
      in
      output_bytes oc b;
      output_string oc "abc";
      close_out oc;
      let t = Lsm.open_ dir in
      Alcotest.(check int) "half frame dropped" 10 (Lsm.count t);
      check_oracle t entries everything;
      Lsm.close t)

(* A store whose components were written by format 2 or 3 is refused
   by name: none of them could be read, so opening it with every
   component failed would serve nothing. *)
let test_old_format_store_refused epoch () =
  Helpers.with_temp_dir (fun dir ->
      let page_size = Helpers.small_page_size in
      let t = Lsm.create ~buffer_capacity:4 ~page_size dir in
      Array.iter (Lsm.insert t) (Helpers.random_entries ~n:20 ~seed:72);
      Lsm.flush t;
      Alcotest.(check bool) "components written" true (Lsm.components t <> []);
      Lsm.close t;
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".idx" then
            Helpers.restamp_epoch ~page_size (Filename.concat dir name) ~epoch)
        (Sys.readdir dir);
      match Lsm.open_ ~page_size dir with
      | t ->
          Lsm.close t;
          Alcotest.failf "a store of format-%d components opened" epoch
      | exception Prt_storage.Superblock.Unsupported_format found ->
          Alcotest.(check int) "the format found" epoch found;
          Alcotest.(check string) "the message"
            (Printf.sprintf
               "index format %d; this build reads format 4: rebuild it from its dataset" epoch)
            (Prt_storage.Superblock.unsupported_format_message found))

(* --- deletes and tombstones --- *)

let test_deletes_and_compact () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:20 ~seed:71 in
      let t =
        Lsm.create ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir
      in
      Array.iter (Lsm.insert t) entries;
      (* entries.(3) merged into a component by now; the newest may
         still be buffered. *)
      Alcotest.(check bool) "delete stored" true (Lsm.delete t entries.(3));
      Alcotest.(check bool) "delete twice" false (Lsm.delete t entries.(3));
      Alcotest.(check bool) "delete buffered" true (Lsm.delete t entries.(19));
      Alcotest.(check bool)
        "delete absent" false
        (Lsm.delete t (Entry.make (Rect.make ~xmin:5.0 ~ymin:5.0 ~xmax:6.0 ~ymax:6.0) 999));
      Alcotest.(check int) "count" 18 (Lsm.count t);
      let expected =
        Array.of_list
          (List.filteri (fun i _ -> i <> 3 && i <> 19) (Array.to_list entries))
      in
      check_oracle t expected everything;
      Alcotest.(check bool)
        "tombstone recorded" true
        ((Lsm.stats t).Lsm.s_tombstones >= 1);
      (* Compaction resolves every reachable tombstone into one
         component. *)
      Lsm.compact t;
      Alcotest.(check int) "tombstones resolved" 0 (Lsm.stats t).Lsm.s_tombstones;
      Alcotest.(check int) "single component" 1 (List.length (Lsm.components t));
      check_oracle t expected everything;
      Lsm.validate t;
      Lsm.close t;
      let t = Lsm.open_ ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir in
      Alcotest.(check int) "count after reopen" 18 (Lsm.count t);
      check_oracle t expected everything;
      Lsm.close t)

(* Deleting every entry of a multi-component store leaves nothing to
   see, before and after the compaction that drops every component and
   resolves every tombstone, and after a reopen. *)
let test_delete_all () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:30 ~seed:151 in
      let t =
        Lsm.create ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir
      in
      Array.iter (Lsm.insert t) entries;
      Alcotest.(check bool) "several components" true
        (List.length (Lsm.components t) > 1);
      Array.iter
        (fun e -> Alcotest.(check bool) "delete succeeds" true (Lsm.delete t e))
        entries;
      let check_empty msg t =
        Alcotest.(check int) (msg ^ ": count") 0 (Lsm.count t);
        check_oracle ~msg t [||] everything
      in
      let check_nothing_stored msg t =
        Alcotest.(check (list (pair int int))) (msg ^ ": no component") []
          (Lsm.components t);
        Alcotest.(check int) (msg ^ ": no tombstone") 0 (Lsm.stats t).Lsm.s_tombstones
      in
      check_empty "all deleted" t;
      Lsm.compact t;
      check_empty "compacted" t;
      check_nothing_stored "compacted" t;
      Lsm.validate t;
      Lsm.close t;
      let t = Lsm.open_ ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir in
      check_empty "reopened" t;
      check_nothing_stored "reopened" t;
      Lsm.close t)

(* A rectangle with a NaN coordinate is refused before its WAL record
   is written: the merge absorbing it would write a component page that
   no later query, merge or validate could read. *)
let test_insert_refuses_nan () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:300 ~seed:161 in
      let t = Lsm.create ~buffer_capacity:16 ~wal_sync:`Never dir in
      Array.iter (Lsm.insert t) (Array.sub entries 0 200);
      (match
         Lsm.insert t (Entry.make (Rect.of_corners (Float.nan, 0.5) (0.6, 0.6)) 100_000)
       with
      | () -> Alcotest.fail "a NaN rectangle was acknowledged"
      | exception Invalid_argument _ -> ());
      Array.iter (Lsm.insert t) (Array.sub entries 200 100);
      Alcotest.(check int) "count" 300 (Lsm.count t);
      check_oracle t entries everything;
      Lsm.validate t;
      Lsm.close t;
      let t = Lsm.open_ ~buffer_capacity:16 dir in
      Alcotest.(check int) "count after reopen" 300 (Lsm.count t);
      check_oracle ~msg:"reopened" t entries everything;
      Lsm.close t)

(* Re-inserting a tombstoned id would be silently lost (hidden by the
   id-keyed tombstone, dropped at the next merge while the dead stored
   copy resurrects), so it must be rejected until a merge resolves the
   tombstone — after which the id is insertable again, durably. *)
let test_tombstone_reinsert () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:12 ~seed:97 in
      let t =
        Lsm.create ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir
      in
      Array.iter (Lsm.insert t) entries;
      Lsm.flush t;
      let victim = entries.(5) in
      Alcotest.(check bool) "delete stored" true (Lsm.delete t victim);
      Alcotest.check_raises "reinsert under live tombstone rejected"
        (Invalid_argument "Lsm.insert: id has an unresolved tombstone")
        (fun () -> Lsm.insert t victim);
      (* Nothing was acknowledged by the rejected insert: the entry
         stays deleted, across a reopen too. *)
      let expected =
        Array.of_list
          (List.filteri (fun i _ -> i <> 5) (Array.to_list entries))
      in
      check_oracle ~msg:"rejected insert left no trace" t expected everything;
      Lsm.close t;
      let t = Lsm.open_ ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir in
      check_oracle ~msg:"still deleted after reopen" t expected everything;
      (* Compaction resolves the tombstone; the id is insertable again
         and the new rectangle (not the dead one) is what queries see. *)
      Lsm.compact t;
      Alcotest.(check int) "tombstone resolved" 0 (Lsm.stats t).Lsm.s_tombstones;
      let reborn =
        Entry.make
          (Rect.make ~xmin:400.0 ~ymin:400.0 ~xmax:401.0 ~ymax:401.0)
          (Entry.id victim)
      in
      Lsm.insert t reborn;
      let expected = Array.append expected [| reborn |] in
      Alcotest.(check int) "count after rebirth" 12 (Lsm.count t);
      check_oracle ~msg:"reborn entry visible" t expected everything;
      let hits, _ =
        Lsm.query_list t
          (Rect.make ~xmin:399.0 ~ymin:399.0 ~xmax:402.0 ~ymax:402.0)
      in
      Alcotest.(check bool)
        "reborn rect queryable" true
        (List.exists (fun e -> Entry.equal e reborn) hits);
      Lsm.flush t;
      Lsm.close t;
      let t = Lsm.open_ ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir in
      check_oracle ~msg:"rebirth durable" t expected everything;
      Lsm.validate t;
      Lsm.close t)

(* --- orphan reclamation --- *)

let test_orphan_reclaim () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:20 ~seed:81 in
      let t =
        Lsm.create ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir
      in
      Array.iter (Lsm.insert t) entries;
      Lsm.flush t;
      Lsm.close t;
      (* Litter the directory the way interrupted merges would. *)
      let plant name content =
        let oc = open_out_bin (Filename.concat dir name) in
        output_string oc content;
        close_out oc
      in
      plant "c009999.idx" "half-built component";
      plant "c000777.idx.tmp" "tmp leftover";
      plant "MANIFEST-000099.tmp" "tmp manifest";
      plant "wal-000000.log" "stale segment below the floor";
      let t = Lsm.open_ ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir in
      Alcotest.(check int)
        "orphans reclaimed" 4
        (Lsm.stats t).Lsm.s_orphans_reclaimed;
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " deleted") false
            (Sys.file_exists (Filename.concat dir name)))
        [ "c009999.idx"; "c000777.idx.tmp"; "MANIFEST-000099.tmp"; "wal-000000.log" ];
      Alcotest.(check int) "data intact" 20 (Lsm.count t);
      check_oracle t entries everything;
      (* A second open finds nothing left to reclaim. *)
      Lsm.close t;
      let t = Lsm.open_ ~buffer_capacity:4 ~page_size:Helpers.small_page_size dir in
      Alcotest.(check int) "second open clean" 0 (Lsm.stats t).Lsm.s_orphans_reclaimed;
      Lsm.close t)

(* --- the kill-point crash matrix --- *)

(* The scripted workload: 28 inserts with two deletes in the middle and
   a flush at the end, over a buffer of 6 on 512-byte pages — several
   WAL rotations and component merges, so kill points land on WAL
   appends and fsyncs, component page writes, manifest swaps and
   post-merge cleanup alike. *)
type op = I of Entry.t | D of Entry.t | F

let crash_script entries =
  let ops = ref [] in
  Array.iteri
    (fun i e ->
      ops := I e :: !ops;
      if i = 9 then ops := D entries.(2) :: !ops;
      if i = 19 then ops := D entries.(5) :: !ops)
    entries;
  List.rev (F :: !ops)

let apply_op t = function
  | I e -> Lsm.insert t e
  | D e -> ignore (Lsm.delete t e)
  | F -> Lsm.flush t

let expected_ids ops =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | I e -> Hashtbl.replace tbl (Entry.id e) ()
      | D e -> Hashtbl.remove tbl (Entry.id e)
      | F -> ())
    ops;
  List.sort Int.compare (Hashtbl.fold (fun id () acc -> id :: acc) tbl [])

let test_crash_matrix () =
  let entries = Helpers.random_entries ~n:28 ~seed:91 in
  let script = crash_script entries in
  let budget = ref 0 in
  let finished = ref false in
  while not !finished do
    Helpers.with_temp_dir (fun dir ->
        let crash = Failpoint.create (Failpoint.crash_after !budget) in
        let t =
          Lsm.create ~buffer_capacity:6 ~page_size:Helpers.small_page_size
            ~crash dir
        in
        let acked = ref [] in
        let pending = ref None in
        let crashed =
          match
            List.iter
              (fun op ->
                pending := Some op;
                apply_op t op;
                acked := op :: !acked;
                pending := None)
              script
          with
          | () ->
              finished := true;
              Lsm.close t;
              false
          | exception Failpoint.Simulated_crash _ -> true
        in
        (* The process died at kill point [budget].  Reopen cleanly:
           the store must hold exactly the acknowledged operations,
           give or take the single in-flight one (logged but unacked). *)
        let reopened =
          Lsm.open_ ~buffer_capacity:6 ~page_size:Helpers.small_page_size dir
        in
        let got = live_ids reopened in
        let want_acked = expected_ids (List.rev !acked) in
        let want_pending =
          match !pending with
          | None -> want_acked
          | Some op -> expected_ids (List.rev (op :: !acked))
        in
        if got <> want_acked && got <> want_pending then
          Alcotest.failf
            "kill point %d: reopened to %d ids, want %d acked (or %d with the in-flight op)"
            !budget (List.length got) (List.length want_acked)
            (List.length want_pending);
        Lsm.validate reopened;
        Lsm.close reopened;
        (* Recovery is idempotent: a second reopen finds no orphans and
           the same answer. *)
        let again =
          Lsm.open_ ~buffer_capacity:6 ~page_size:Helpers.small_page_size dir
        in
        Alcotest.(check int)
          (Printf.sprintf "kill point %d: second open clean" !budget)
          0
          (Lsm.stats again).Lsm.s_orphans_reclaimed;
        Alcotest.(check (list int))
          (Printf.sprintf "kill point %d: recovery idempotent" !budget)
          got (live_ids again);
        Lsm.close again;
        (* Only now release the dead process's descriptors (closing fds
           never alters on-disk bytes, but keep it after verification
           anyway). *)
        if crashed then (try Lsm.close t with _ -> ());
        incr budget)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "swept a real matrix (%d kill points)" !budget)
    true (!budget > 60)

(* --- mid-merge abort -> reopen -> retry --- *)

(* A lossy device: moderate fault rate with a high consecutive cap, and
   only 2 attempts per operation — WAL appends are retried by the caller
   below, merges abort.  Returns the open store and the acknowledged
   entries, in insertion order; aborted merges leave a sealed backlog. *)
let lossy_backlog dir =
  let faults =
    Failpoint.create (Failpoint.uniform ~seed:7 ~max_consecutive:4 0.3)
  in
  let policy = { Retry.default_policy with Retry.attempts = 2 } in
  (* With only 2 attempts against a 30% fault rate, even [create]'s
     initial manifest write can exhaust its budget: retry it at this
     level, like every other acknowledged operation below. *)
  let rec make tries =
    match
      Lsm.create ~buffer_capacity:8 ~page_size:Helpers.small_page_size
        ~faults ~retry_policy:policy dir
    with
    | t -> t
    | exception Prt_storage.Pager.Io_error _ when tries > 0 ->
        Helpers.rm_rf dir;
        make (tries - 1)
  in
  let t = make 20 in
  let entries = Helpers.random_entries ~n:40 ~seed:101 in
  let acked = ref [] in
  Array.iter
    (fun e ->
      let rec go tries =
        match Lsm.insert t e with
        | () -> acked := e :: !acked
        | exception Prt_storage.Pager.Io_error _ when tries > 0 ->
            go (tries - 1)
        | exception Prt_storage.Pager.Io_error _ -> ()
      in
      go 20)
    entries;
  (t, Array.of_list (List.rev !acked))

let test_abort_reopen_retry () =
  Helpers.with_temp_dir (fun dir ->
      let t, acked = lossy_backlog dir in
      Alcotest.(check int) "every insert eventually acked" 40 (Array.length acked);
      (* Merges aborted under the fault storm, but every acknowledged
         insert stays queryable throughout. *)
      let st = Lsm.stats t in
      Alcotest.(check bool) "merges aborted" true (st.Lsm.s_merge_aborts >= 1);
      check_oracle ~msg:"degraded but honest" t acked everything;
      Lsm.close t;
      (* Reopen on a healthy device: WAL replay restores the sealed
         backlog, and the retried merge drains it. *)
      let t =
        Lsm.open_ ~buffer_capacity:8 ~page_size:Helpers.small_page_size dir
      in
      Alcotest.(check int) "count after recovery" 40 (Lsm.count t);
      check_oracle t acked everything;
      Lsm.flush t;
      Alcotest.(check int) "backlog drained" 0 (Lsm.buffer_size t);
      check_slots ~buffer_capacity:8 t;
      Lsm.validate t;
      Lsm.close t)

(* An id left in the sealed set by an aborted merge is deleted at once:
   tombstoned under the lock that finds it sealed, and resolved by the
   merge that absorbs the backlog. *)
let test_delete_sealed () =
  Helpers.with_temp_dir (fun dir ->
      let t, acked = lossy_backlog dir in
      let st = Lsm.stats t in
      (* Inline merges absorb the whole sealed set, so the components
         hold the oldest acknowledged inserts, the sealed set the next
         ones, and the active buffer the newest. *)
      let stored = List.fold_left (fun a (_, n) -> a + n) 0 (Lsm.components t) in
      Alcotest.(check int) "components + sealed + buffer" (Array.length acked)
        (stored + st.Lsm.s_sealed + st.Lsm.s_buffer);
      Alcotest.(check bool) "sealed backlog" true (st.Lsm.s_sealed > 0);
      let victim = acked.(stored) in
      (* A failed WAL append logs nothing, so the caller retries. *)
      let rec delete tries =
        match Lsm.delete t victim with
        | r -> r
        | exception Prt_storage.Pager.Io_error _ when tries > 0 ->
            delete (tries - 1)
      in
      Alcotest.(check bool) "delete of a sealed id" true (delete 20);
      Alcotest.(check bool) "second delete finds nothing" false (delete 20);
      let survivors =
        Array.of_list
          (List.filter (fun e -> Entry.id e <> Entry.id victim) (Array.to_list acked))
      in
      let check_state msg t =
        Alcotest.(check int) (msg ^ ": count") (Array.length survivors) (Lsm.count t);
        check_oracle ~msg t survivors everything;
        check_oracle ~msg t survivors (Entry.rect victim)
      in
      check_state "after delete" t;
      (* The device is still lossy: the merge may abort again, and the
         deleted id must stay gone either way. *)
      (try Lsm.flush t with Prt_storage.Pager.Io_error _ -> ());
      check_state "after flush" t;
      Lsm.close t;
      let t =
        Lsm.open_ ~buffer_capacity:8 ~page_size:Helpers.small_page_size dir
      in
      check_state "after reopen" t;
      Lsm.flush t;
      check_state "after a healthy flush" t;
      Lsm.validate t;
      Lsm.close t)

(* A delete of an id that a mid-merge seal coalesced: the running merge
   did not copy that id, so its commit must not persist the tombstone.
   The delete record lies above the new WAL floor with the insert it
   cancels; a manifest copy would survive the replay and tombstone
   nothing, leaving the count one short and the id uninsertable.  A
   second domain runs the merge, paused at its first component page
   write while this one seals a second batch and deletes from it. *)
let test_delete_mid_merge_seal () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:16 ~seed:141 in
      let first = Array.sub entries 0 8 and second = Array.sub entries 8 8 in
      let victim = second.(3) in
      (* 0: idle, 1: armed, 2: merge paused, 3: resumed. *)
      let phase = Atomic.make 0 in
      let building () =
        Array.exists
          (fun n -> Filename.check_suffix n ".idx.tmp")
          (Sys.readdir dir)
      in
      let hook _ =
        if Atomic.get phase = 1 && building () && Atomic.compare_and_set phase 1 2
        then
          while Atomic.get phase = 2 do
            Domain.cpu_relax ()
          done
      in
      let crash =
        Failpoint.create { Failpoint.default with phys_write_hook = Some hook }
      in
      let t =
        Lsm.create ~buffer_capacity:8 ~page_size:Helpers.small_page_size
          ~wal_sync:`Never ~crash dir
      in
      Array.iter (Lsm.insert t) (Array.sub first 0 7);
      Atomic.set phase 1;
      (* The eighth insert seals the first batch and merges it inline. *)
      let merger = Domain.spawn (fun () -> Lsm.insert t first.(7)) in
      while Atomic.get phase <> 2 do
        Domain.cpu_relax ()
      done;
      Array.iter (Lsm.insert t) second;
      Alcotest.(check int) "both batches sealed" 16 (Lsm.stats t).Lsm.s_sealed;
      Alcotest.(check bool) "delete of a coalesced id" true (Lsm.delete t victim);
      Atomic.set phase 3;
      Domain.join merger;
      Alcotest.(check (list (pair int int))) "the merge took the first batch"
        [ (0, 8) ] (Lsm.components t);
      let survivors =
        Array.of_list
          (List.filter
             (fun e -> Entry.id e <> Entry.id victim)
             (Array.to_list entries))
      in
      let check_state msg t =
        Alcotest.(check int) (msg ^ ": count") 15 (Lsm.count t);
        check_oracle ~msg t survivors everything
      in
      check_state "after the merge" t;
      Lsm.close t;
      let t =
        Lsm.open_ ~buffer_capacity:8 ~page_size:Helpers.small_page_size dir
      in
      check_state "after reopen" t;
      Alcotest.(check int) "no tombstone survives the replay" 0
        (Lsm.stats t).Lsm.s_tombstones;
      Lsm.flush t;
      check_state "after flush" t;
      Lsm.insert t victim;
      Alcotest.(check int) "re-inserted" 16 (Lsm.count t);
      check_oracle t entries everything;
      Lsm.validate t;
      Lsm.close t)

(* --- a merge past 50k entries --- *)

(* Every merge bulk-loads in memory, however large.  The compacted
   component must answer like brute force and stay close to its live
   payload: an external sort's scratch pages left in the file would
   make it several times larger. *)
let test_large_merge () =
  Helpers.with_temp_dir (fun dir ->
      let n = 60_000 in
      let entries = Helpers.random_entries ~n ~seed:131 in
      let t = Lsm.create ~wal_sync:`Never dir in
      Array.iter (Lsm.insert t) entries;
      Lsm.compact t;
      Alcotest.(check (list (pair int int))) "one component" [ (6, n) ]
        (Lsm.components t);
      Array.iter
        (fun q -> check_oracle t entries q)
        (Helpers.random_queries ~n:20 ~seed:132);
      let bytes =
        Array.fold_left
          (fun acc name ->
            if Filename.check_suffix name ".idx" then
              acc + (Unix.stat (Filename.concat dir name)).Unix.st_size
            else acc)
          0 (Sys.readdir dir)
      in
      let payload = n * Entry.size in
      Alcotest.(check bool)
        (Printf.sprintf "component file %d B <= 2 x payload %d B" bytes payload)
        true
        (bytes <= 2 * payload);
      Lsm.validate t;
      Lsm.close t)

(* A query reads the tombstone set as it stood when it started without
   copying it: 2,000 tombstones must not add to what a query
   allocates.  A per-query copy allocated ~80 KB here, and its forced
   minor collections made most of ingest-mixed's query time. *)
let test_query_tombstone_snapshot () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:3_000 ~seed:141 in
      let t = Lsm.create ~wal_sync:`Never dir in
      Array.iter (Lsm.insert t) entries;
      Lsm.flush t;
      let window = Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.45 ~ymax:0.45 in
      let per_query () =
        (* Counters are exact only with the minor heap empty. *)
        let queries = 100 in
        Gc.minor ();
        let a0 = Gc.allocated_bytes () in
        for _ = 1 to queries do
          ignore (Lsm.query t window ~f:ignore)
        done;
        Gc.minor ();
        (Gc.allocated_bytes () -. a0) /. float_of_int queries
      in
      ignore (per_query ());
      let before = per_query () in
      for i = 0 to 1_999 do
        Alcotest.(check bool) "delete stored" true (Lsm.delete t entries.(i))
      done;
      Alcotest.(check int) "tombstones" 2_000 (Lsm.stats t).Lsm.s_tombstones;
      let after = per_query () in
      Alcotest.(check bool)
        (Printf.sprintf "bytes per query: %.0f, then %.0f with 2,000 tombstones"
           before after)
        true
        (after -. before < 512.0);
      check_oracle t (Array.sub entries 2_000 1_000) window;
      Lsm.close t)

(* --- background merges --- *)

let test_background () =
  Helpers.with_temp_dir (fun dir ->
      let n = 300 in
      let entries = Helpers.random_entries ~n ~seed:111 in
      let t =
        Lsm.create ~buffer_capacity:16 ~page_size:Helpers.small_page_size
          ~wal_sync:`Never ~background:true dir
      in
      let inserted = Hashtbl.create n in
      Array.iteri
        (fun i e ->
          Lsm.insert t e;
          Hashtbl.replace inserted (Entry.id e) ();
          if i mod 37 = 0 then begin
            (* Concurrent honest reads: whatever the merge domain is
               doing, a query returns a complete answer over some
               prefix-consistent state — never an error, never a
               partial label. *)
            let result, stats = Lsm.query_list t everything in
            Alcotest.(check bool) "complete under merges" true (Rtree.complete stats);
            List.iter
              (fun e ->
                Alcotest.(check bool)
                  "no phantom entries" true
                  (Hashtbl.mem inserted (Entry.id e)))
              result
          end)
        entries;
      Lsm.wait_merges t;
      Alcotest.(check int) "count" n (Lsm.count t);
      check_oracle t entries everything;
      Array.iter
        (fun q -> check_oracle t entries q)
        (Helpers.random_queries ~n:10 ~seed:112);
      check_slots ~buffer_capacity:16 t;
      Lsm.validate t;
      Lsm.close t;
      let t =
        Lsm.open_ ~buffer_capacity:16 ~page_size:Helpers.small_page_size dir
      in
      Alcotest.(check int) "count after reopen" n (Lsm.count t);
      Lsm.close t)

(* --- qcheck differential vs an in-memory oracle --- *)

(* Random schedules of insert / delete / query / flush / compact /
   reopen over a small buffer, optionally on a lossy device whose
   faults the retry engine absorbs.  Every query must match the oracle
   exactly, with a Complete label. *)
let run_differential ~faulty (sc : Helpers.scenario) =
  Helpers.with_temp_dir (fun dir ->
      let rng = Rng.create sc.Helpers.sc_seed in
      let faults =
        if faulty then
          Some
            (Failpoint.create
               (Failpoint.uniform ~seed:(sc.Helpers.sc_seed + 1)
                  ~max_consecutive:2 0.05))
        else None
      in
      let make fresh =
        let go =
          (if fresh then Lsm.create else Lsm.open_)
            ~buffer_capacity:4 ~page_size:Helpers.small_page_size ?faults
            ~wal_sync:`Never
        in
        (* Recovery itself runs on the lossy device: retry transient
           faults like any caller would. *)
        let rec attempt n =
          match go dir with
          | t -> t
          | exception Pager.Io_error _ when n > 0 -> attempt (n - 1)
        in
        attempt 50
      in
      let t = ref (make true) in
      let trace = Sys.getenv_opt "PRT_TRACE" <> None in
      let dump tag =
        if trace then begin
          let s = Lsm.stats !t in
          Printf.printf "[%s] count=%d buf=%d sealed=%d tomb=%d comps=[%s] last=%s\n%!"
            tag (Lsm.count !t) s.Lsm.s_buffer s.Lsm.s_sealed s.Lsm.s_tombstones
            (String.concat ";"
               (List.map
                  (fun (l, n, ok) ->
                    Printf.sprintf "L%d:%d%s" l n (if ok then "" else "!"))
                  s.Lsm.s_components))
            s.Lsm.s_last_merge
        end
      in
      let oracle = Hashtbl.create 64 in
      let next_id = ref 0 in
      let alive () = Hashtbl.fold (fun _ e acc -> e :: acc) oracle [] in
      for _ = 1 to sc.Helpers.sc_size do
        match Rng.int rng 100 with
        | r when r < 55 ->
            let e = Entry.make (Helpers.random_rect rng) !next_id in
            incr next_id;
            Lsm.insert !t e;
            Hashtbl.replace oracle (Entry.id e) e;
            dump (Printf.sprintf "insert %d" (Entry.id e))
        | r when r < 70 ->
            if Hashtbl.length oracle > 0 then begin
              let victims =
                List.sort
                  (fun a b -> Int.compare (Entry.id a) (Entry.id b))
                  (alive ())
              in
              let e = List.nth victims (Rng.int rng (List.length victims)) in
              let deleted = Lsm.delete !t e in
              if not deleted then
                Alcotest.failf "%s: delete of live id %d refused"
                  (Helpers.scenario_repro sc) (Entry.id e);
              Hashtbl.remove oracle (Entry.id e);
              dump (Printf.sprintf "delete %d" (Entry.id e))
            end
        | r when r < 90 ->
            let w = Helpers.random_rect rng in
            let result, stats = Lsm.query_list !t w in
            let expected =
              Helpers.brute_force (Array.of_list (alive ())) w
            in
            dump "query";
            if Helpers.ids_of result <> expected then
              Alcotest.failf "%s: query diverged from oracle"
                (Helpers.scenario_repro sc);
            if not (Rtree.complete stats) then
              Alcotest.failf "%s: incomplete answer on a healthy store"
                (Helpers.scenario_repro sc)
        | r when r < 94 -> (
            (* On a lossy device an explicit merge may abort cleanly
               once retries exhaust — acknowledged data stays queryable
               either way, which the next query asserts. *)
            (try Lsm.flush !t with Pager.Io_error _ when faulty -> ());
            dump "flush")
        | r when r < 96 -> (
            (try Lsm.compact !t with Pager.Io_error _ when faulty -> ());
            dump "compact")
        | _ ->
            Lsm.close !t;
            t := make false;
            dump "reopen"
      done;
      let result, _ = Lsm.query_list !t everything in
      let expected =
        List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) oracle [])
      in
      if Helpers.ids_of result <> expected then
        Alcotest.failf "%s: final state diverged" (Helpers.scenario_repro sc);
      Lsm.validate !t;
      Lsm.close !t;
      true)

let qcheck_differential =
  QCheck.Test.make ~count:15 ~name:"lsm matches oracle under random schedules"
    (Helpers.arbitrary_scenario ~min_size:10 ~max_size:60 ())
    (run_differential ~faulty:false)

let qcheck_differential_faulty =
  QCheck.Test.make
    ~count:(if Helpers.long_run then 25 else 8)
    ~name:"lsm matches oracle on a lossy device"
    (Helpers.arbitrary_scenario ~min_size:10 ~max_size:40 ())
    (run_differential ~faulty:true)

(* --- the packed buffer --- *)

(* Nothing merges here (M0 = 4,096), so every answer comes from the
   buffer scans: closed intervals on rectangles that share edges or
   corners, points, zero-width rectangles, signed zeros and infinite
   coordinates, checked against brute force after deletes from the
   last and the first slot, of the entry moved into the first, and from
   a middle slot, after aborted merges leave a sealed buffer and a
   second seal coalesces into it, and after reopens that replay an
   insert, a delete and a re-insert of one id. *)
let test_packed_buffer_edges () =
  Helpers.with_temp_dir (fun dir ->
      let page_size = Helpers.small_page_size in
      let r x0 y0 x1 y1 = Rect.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1 in
      let inf = Float.infinity in
      let rects =
        [|
          r 0. 0. 1. 1.; r 1. 0. 2. 1.; r 0. 1. 1. 2.; r 1. 1. 2. 2.;
          r 0.5 0.5 0.5 0.5; r 2. 0. 2. 3.; r 0. 3. 3. 3.;
          r (-0.) (-0.) (-0.) (-0.); r 0. 0. 0. 0.; r (-1.) (-0.) (-0.) 1.;
          r (-.inf) 0. 0. 1.; r 5. 5. inf inf; r (-.inf) (-.inf) inf inf;
          r (-.inf) 4. (-.inf) 4.; r 3. (-.inf) 3. inf;
        |]
      in
      let first = Array.mapi (fun i rc -> Entry.make rc i) rects in
      let second = Array.mapi (fun i rc -> Entry.make rc (100 + i)) rects in
      let windows =
        Array.append
          [|
            r 1. 1. 1. 1.; r 1. 0. 1. 2.; r 2. 3. 2. 3.; r 0.5 0.5 0.5 0.5;
            r (-0.) (-0.) (-0.) (-0.); r 0. 0. 0. 0.; r (-0.5) 0.5 (-0.) 0.5;
            r (-.inf) (-.inf) inf inf; r (-.inf) 4. (-.inf) 4.; r 6. 6. inf inf;
            r 3. 3. 3. 3.; r 2.5 2.5 2.9 2.9; r (-2.) 5. (-1.5) 6.;
          |]
          rects
      in
      let model = Hashtbl.create 64 in
      let check msg t =
        let live = Array.of_seq (Hashtbl.to_seq_values model) in
        let batch = Lsm.query_batch t windows in
        Array.iteri
          (fun i w ->
            let want = Helpers.brute_force live w in
            Alcotest.(check (list int))
              (Printf.sprintf "%s: window %d" msg i)
              want
              (Helpers.ids_of (fst (Lsm.query_list t w)));
            Alcotest.(check (list int))
              (Printf.sprintf "%s: batch slot %d" msg i)
              want
              (Helpers.ids_of (fst batch.(i))))
          windows;
        Alcotest.(check int) (msg ^ ": count") (Hashtbl.length model) (Lsm.count t)
      in
      let insert t e =
        Lsm.insert t e;
        Hashtbl.replace model (Entry.id e) e
      in
      let delete t e =
        Alcotest.(check bool) "delete acknowledged" true (Lsm.delete t e);
        Hashtbl.remove model (Entry.id e)
      in
      (* While armed, every page write of a component build fails, so
         each merge attempt fails and the merge aborts; a build is
         recognised by a .tmp file newer than the arming. *)
      let armed = ref None in
      let tmps () =
        Array.fold_left
          (fun n f -> if Filename.check_suffix f ".idx.tmp" then n + 1 else n)
          0 (Sys.readdir dir)
      in
      let hook _ =
        match !armed with
        | Some n when tmps () > n -> raise (Pager.Io_error "test: component build fails")
        | _ -> ()
      in
      let crash = Failpoint.create { Failpoint.default with phys_write_hook = Some hook } in
      let aborted_flush t =
        armed := Some (tmps ());
        (match Lsm.flush t with
        | () -> Alcotest.fail "a merge committed while every build fails"
        | exception Pager.Io_error _ -> ());
        armed := None;
        Alcotest.(check int) "no build left a .tmp behind" 0 (tmps ())
      in
      let t = Lsm.create ~buffer_capacity:4096 ~page_size ~wal_sync:`Never ~crash dir in
      Array.iter (insert t) first;
      check "buffered" t;
      let n = Array.length first in
      delete t first.(n - 1);
      check "last slot deleted" t;
      delete t first.(0);
      check "first slot deleted" t;
      (* The first slot's hole took the last entry; delete it from there. *)
      delete t first.(n - 2);
      check "moved entry deleted" t;
      delete t first.(n / 2);
      check "middle slot deleted" t;
      aborted_flush t;
      Alcotest.(check (pair int int)) "all sealed, none buffered"
        (Hashtbl.length model, 0)
        ((Lsm.stats t).Lsm.s_sealed, (Lsm.stats t).Lsm.s_buffer);
      check "sealed after an aborted merge" t;
      Array.iter (insert t) second;
      delete t first.(3);
      check "sealed beside a buffer" t;
      aborted_flush t;
      Alcotest.(check (pair int int)) "coalesced into the sealed buffer"
        (Hashtbl.length model + 1, 0)
        ((Lsm.stats t).Lsm.s_sealed, (Lsm.stats t).Lsm.s_buffer);
      Alcotest.(check (list (pair int int))) "no component" [] (Lsm.components t);
      check "coalesced" t;
      Lsm.close t;
      let reopen () = Lsm.open_ ~buffer_capacity:4096 ~page_size ~wal_sync:`Never dir in
      let t = reopen () in
      check "replayed" t;
      let id = 500 in
      insert t (Entry.make (r 7. 7. 8. 8.) id);
      delete t (Entry.make (r 7. 7. 8. 8.) id);
      insert t (Entry.make (r 1. 1. 1. 1.) id);
      check "insert, delete and insert of one id" t;
      Lsm.close t;
      let t = reopen () in
      check "replayed insert, delete and insert" t;
      Lsm.close t)

(* A query that hits nothing allocates no more with 1,000 entries
   buffered than with 10: the scan boxes an entry only for a hit. *)
let test_packed_scan_allocation () =
  Helpers.with_temp_dir (fun dir ->
      let entries = Helpers.random_entries ~n:1_000 ~seed:171 in
      let t = Lsm.create ~buffer_capacity:4096 ~wal_sync:`Never dir in
      let miss = Rect.make ~xmin:10.0 ~ymin:10.0 ~xmax:11.0 ~ymax:11.0 in
      let words_per_query () =
        let queries = 100 in
        (* Counters are exact only with the minor heap empty. *)
        Gc.minor ();
        let w0 = Gc.minor_words () in
        for _ = 1 to queries do
          ignore (Lsm.query t miss ~f:ignore)
        done;
        Gc.minor ();
        (Gc.minor_words () -. w0) /. float_of_int queries
      in
      Array.iter (Lsm.insert t) (Array.sub entries 0 10);
      ignore (words_per_query ());
      let ten = words_per_query () in
      Array.iter (Lsm.insert t) (Array.sub entries 10 990);
      let thousand = words_per_query () in
      Alcotest.(check int) "all buffered" 1_000 (Lsm.buffer_size t);
      Alcotest.(check bool)
        (Printf.sprintf "minor words per query: %.1f with 10 buffered, %.1f with 1,000" ten
           thousand)
        true
        (Float.abs (thousand -. ten) <= 4.0);
      Lsm.close t)

(* A compacted component is the file a direct build writes over the
   same live entries in any order: PR-tree files do not depend on input
   order, so the buffer's slot order cannot change a component. *)
let test_compact_matches_direct_build () =
  Helpers.with_temp_dir (fun dir ->
      let page_size = Helpers.small_page_size in
      let base = Helpers.random_entries ~n:400 ~seed:181 in
      (* Duplicated geometry under distinct ids, so ties must break by id. *)
      let entries =
        Array.append base (Array.init 40 (fun i -> Entry.make (Entry.rect base.(i)) (1_000 + i)))
      in
      let t = Lsm.create ~buffer_capacity:16 ~page_size ~wal_sync:`Never dir in
      Array.iter (Lsm.insert t) entries;
      let live = List.filteri (fun i _ -> i mod 7 <> 3) (Array.to_list entries) in
      Array.iteri
        (fun i e -> if i mod 7 = 3 then ignore (Lsm.delete t e))
        entries;
      Lsm.compact t;
      Alcotest.(check (list (pair int int))) "one component"
        [ (5, List.length live) ]
        (Lsm.components t);
      let component =
        match
          List.filter (fun f -> Filename.check_suffix f ".idx") (Array.to_list (Sys.readdir dir))
        with
        | [ f ] -> Filename.concat dir f
        | fs -> Alcotest.failf "%d component files" (List.length fs)
      in
      Lsm.close t;
      let shuffled = Array.of_list live in
      Rng.shuffle (Rng.create 182) shuffled;
      let direct = Filename.concat dir "direct.bin" in
      Index_file.close
        (Index_file.create ~page_size direct ~build:(fun pool -> Prtree.load pool shuffled));
      let read path = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "byte-identical files" true (read component = read direct))

(* Every component a merge writes is the file a direct build writes
   over its own entries.  A 64-entry buffer and a delete of an older
   entry after every 7th insert make merges past Floyd–Rivest's
   600-entry sampling threshold that resolve tombstones; the compaction
   case's 440 entries never reach the sampling branch.  Each new
   component file is read back from a copy, its entries shuffled and
   built straight into a file, and the two compared byte for byte. *)
let test_merges_write_direct_builds () =
  Helpers.with_temp_dir (fun dir ->
      let page_size = Helpers.small_page_size in
      let entries = Helpers.random_entries ~n:5_000 ~seed:191 in
      let t = Lsm.create ~buffer_capacity:64 ~page_size ~wal_sync:`Never dir in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let scratch = Filename.temp_file "prt_direct" ".idx" in
      let checked = Hashtbl.create 64 and largest = ref 0 and resolved = ref 0 in
      let rng = Rng.create 192 in
      let check_new_components () =
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".idx" && not (Hashtbl.mem checked f) then begin
              Hashtbl.add checked f ();
              let component = read (Filename.concat dir f) in
              Out_channel.with_open_bin scratch (fun oc -> Out_channel.output_string oc component);
              let idx = Index_file.open_ ~page_size scratch in
              let tree = Index_file.tree idx in
              let own =
                match Rtree.mbr tree with
                | None -> [||]
                | Some w -> Array.of_list (fst (Rtree.query_list tree w))
              in
              Index_file.close idx;
              largest := max !largest (Array.length own);
              Rng.shuffle rng own;
              Index_file.close
                (Index_file.create ~page_size scratch ~build:(fun pool -> Prtree.load pool own));
              if read scratch <> component then
                Alcotest.failf "component %s (%d entries) differs from the direct build" f
                  (Array.length own)
            end)
          (Sys.readdir dir)
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove scratch)
        (fun () ->
          Array.iteri
            (fun i e ->
              let tombstones = (Lsm.stats t).Lsm.s_tombstones in
              Lsm.insert t e;
              if (Lsm.stats t).Lsm.s_tombstones < tombstones then incr resolved;
              if i mod 7 = 6 && i >= 200 then ignore (Lsm.delete t entries.(i - 200));
              check_new_components ())
            entries;
          Lsm.compact t;
          check_new_components ());
      Lsm.close t;
      Alcotest.(check bool)
        (Printf.sprintf "a merge past the sampling threshold (largest %d entries)" !largest)
        true (!largest > 600);
      Alcotest.(check bool)
        (Printf.sprintf "merges resolved tombstones (%d)" !resolved)
        true (!resolved > 0))

(* The merge that folds four full components into the fifth level
   (15,360 entries, with a 1,024-entry seal) on default settings and
   TIGER-like entries: it reads the components into columns and writes
   pages from them, allocating little on the minor heap per entry. *)
let test_merge_allocation () =
  Helpers.with_temp_dir (fun dir ->
      let n = 16_384 in
      let data = Prt_workloads.Tiger.(generate (default_params ~n ~seed:7)) in
      let t = Lsm.create ~wal_sync:`Never dir in
      for i = 0 to n - 2 do
        Lsm.insert t data.(i)
      done;
      Alcotest.(check (list (pair int int)))
        "four full levels"
        [ (0, 1_024); (1, 2_048); (2, 4_096); (3, 8_192) ]
        (Lsm.components t);
      Gc.minor ();
      let w0 = Gc.minor_words () in
      Lsm.insert t data.(n - 1);
      Gc.minor ();
      let per_entry = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check (list (pair int int))) "one merged level" [ (4, n) ] (Lsm.components t);
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per merged entry (at most 12)" per_entry)
        true (per_entry <= 12.0);
      Lsm.close t)

let suite =
  [
    Alcotest.test_case "basic insert/query/flush" `Quick test_basic;
    Alcotest.test_case "logarithmic slot discipline" `Quick test_merge_levels;
    Alcotest.test_case "batched fan-out" `Quick test_query_batch;
    Alcotest.test_case "reopen replays the WAL" `Quick test_reopen_replay;
    Alcotest.test_case "abandoned handle loses nothing" `Quick test_abandoned_handle;
    Alcotest.test_case "torn WAL tail" `Quick test_torn_wal_tail;
    Alcotest.test_case "deletes, tombstones, compaction" `Quick test_deletes_and_compact;
    Alcotest.test_case "tombstoned id rejects reinsert until resolved" `Quick
      test_tombstone_reinsert;
    Alcotest.test_case "orphan reclamation" `Quick test_orphan_reclaim;
    Alcotest.test_case "kill-point crash matrix" `Slow test_crash_matrix;
    Alcotest.test_case "merge abort -> reopen -> retry" `Quick test_abort_reopen_retry;
    Alcotest.test_case "background merge domain" `Quick test_background;
    Helpers.qcheck_case qcheck_differential;
    Helpers.qcheck_case qcheck_differential_faulty;
    Alcotest.test_case "delete of a sealed id after an aborted merge" `Quick
      test_delete_sealed;
    Alcotest.test_case "delete of an id sealed during a merge" `Quick
      test_delete_mid_merge_seal;
    Alcotest.test_case "merge past 50k entries loads in memory" `Quick
      test_large_merge;
    Alcotest.test_case "query reads tombstones without a copy" `Quick
      test_query_tombstone_snapshot;
    Alcotest.test_case "a store of format-2 components is refused" `Quick
      (test_old_format_store_refused 2);
    Alcotest.test_case "a store of format-3 components is refused" `Quick
      (test_old_format_store_refused 3);
    Alcotest.test_case "deleting every entry empties the store" `Quick test_delete_all;
    Alcotest.test_case "insert refuses a NaN rectangle" `Quick test_insert_refuses_nan;
    Alcotest.test_case "packed buffer answers exactly on edge cases" `Quick
      test_packed_buffer_edges;
    Alcotest.test_case "a missing scan allocates nothing per entry" `Quick
      test_packed_scan_allocation;
    Alcotest.test_case "compaction writes the direct build's file" `Quick
      test_compact_matches_direct_build;
    Alcotest.test_case "every merge writes the direct build's file" `Quick
      test_merges_write_direct_builds;
    Alcotest.test_case "a merge allocates little per entry" `Quick test_merge_allocation;
  ]
