(* Crash-consistency tests: the page integrity trailer (CRC-32C, epoch,
   LSN), zero-fill on page recycling, torn-tail handling, and the
   headline property — killing the process at EVERY physical page-write
   boundary of a build, insert or delete, then reopening, always yields
   exactly the pre-operation or the post-operation tree (never a
   hybrid), and any single flipped bit in a node page is reported as
   [Pager.Corrupt_page], never silently returned as a wrong answer. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Page = Prt_storage.Page
module Pager = Prt_storage.Pager
module Failpoint = Prt_storage.Failpoint
module Superblock = Prt_storage.Superblock
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Dynamic = Prt_rtree.Dynamic
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Audit = Prt_rtree.Audit

let page_size = Helpers.small_page_size

let with_temp f =
  let path = Filename.temp_file "prt_crash" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let with_temp2 f = with_temp (fun a -> with_temp (fun b -> f a b))

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let flip_bit path ~pos ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor (1 lsl bit));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let everything = Rect.make ~xmin:(-1e9) ~ymin:(-1e9) ~xmax:1e9 ~ymax:1e9

(* All entry ids in the tree, sorted: the oracle-comparison fingerprint. *)
let ids tree =
  let out = ref [] in
  ignore (Rtree.query tree everything ~f:(fun e -> out := Entry.id e :: !out));
  List.sort Int.compare !out

(* --- the integrity trailer --- *)

let test_crc32c_vector () =
  (* The standard CRC-32C check value: "123456789" -> 0xE3069283. *)
  Alcotest.(check int)
    "castagnoli check value" 0xE3069283
    (Page.crc32c (Bytes.of_string "123456789") ~pos:0 ~len:9)

let test_stamp_check_roundtrip () =
  let p = Page.create page_size in
  Alcotest.(check bool) "all-zero is fresh" true (Page.check p = Page.Fresh);
  Page.set_f64 p 8 3.25;
  Alcotest.(check bool) "unstamped nonzero is torn" true (Page.check p = Page.Torn);
  Page.stamp p ~lsn:42;
  (match Page.check p with
  | Page.Valid { epoch; lsn } ->
      Alcotest.(check int) "epoch" Page.format_epoch epoch;
      Alcotest.(check int) "lsn" 42 lsn
  | other -> Alcotest.failf "expected valid, got %a" Page.pp_integrity other);
  Alcotest.(check int) "lsn accessor" 42 (Page.lsn p)

let test_check_detects_bit_flips () =
  let p = Page.create page_size in
  for i = 0 to Page.payload_size page_size - 1 do
    Page.set_u8 p i ((i * 7) land 0xff)
  done;
  Page.stamp p ~lsn:7;
  (* Flip single bits across payload and trailer alike: always torn. *)
  List.iter
    (fun (pos, bit) ->
      let byte = Page.get_u8 p pos in
      Page.set_u8 p pos (byte lxor (1 lsl bit));
      Alcotest.(check bool)
        (Printf.sprintf "bit %d of byte %d detected" bit pos)
        true
        (Page.check p = Page.Torn);
      Page.set_u8 p pos byte)
    [ (0, 0); (13, 5); (page_size / 2, 7); (page_size - 16, 1); (page_size - 1, 3) ];
  Alcotest.(check bool) "restored page valid again" true
    (match Page.check p with Page.Valid _ -> true | _ -> false)

let test_stale_epoch () =
  let p = Page.create page_size in
  Page.set_f64 p 0 1.5;
  Page.stamp p ~lsn:3;
  (* Rewrite the epoch field and re-checksum: a page written by some
     other (future) format version, structurally sound. *)
  Page.set_u16 p (page_size - 8) (Page.format_epoch + 1);
  let crc = Page.crc32c p ~pos:0 ~len:(page_size - 4) in
  Bytes.set_int32_le p (page_size - 4) (Int32.of_int crc);
  Alcotest.(check bool) "stale epoch detected" true
    (Page.check p = Page.Stale_epoch (Page.format_epoch + 1))

(* --- pager-level behaviour --- *)

let test_alloc_zero_fills_recycled () =
  let pager = Pager.create_memory ~page_size () in
  let id = Pager.alloc pager in
  let junk = Page.create page_size in
  for i = 0 to Page.payload_size page_size - 1 do
    Page.set_u8 junk i 0xAB
  done;
  Pager.write pager id junk;
  Pager.free pager id;
  let id' = Pager.alloc pager in
  Alcotest.(check int) "same page recycled" id id';
  let back = Pager.read pager id' in
  Alcotest.(check bool) "recycled page reads all-zero" true (Page.check back = Page.Fresh)

let test_corrupt_page_on_file_read () =
  with_temp (fun path ->
      let pager = Pager.create_file ~page_size path in
      let id0 = Pager.alloc pager in
      let id1 = Pager.alloc pager in
      let p = Page.create page_size in
      Page.set_f64 p 0 9.75;
      Pager.write pager id0 p;
      Pager.write pager id1 p;
      Pager.close pager;
      flip_bit path ~pos:((id1 * page_size) + 5) ~bit:2;
      let pager = Pager.open_file ~page_size path in
      Fun.protect
        ~finally:(fun () -> Pager.close pager)
        (fun () ->
          Alcotest.(check (float 0.0)) "intact page reads" 9.75 (Page.get_f64 (Pager.read pager id0) 0);
          Alcotest.(check bool) "corrupt page raises" true
            (try
               ignore (Pager.read pager id1);
               false
             with Pager.Corrupt_page _ -> true);
          Alcotest.(check int) "corrupt read counted" 1 (Pager.corrupt_reads pager)))

let test_partial_tail_reject_and_truncate () =
  with_temp (fun path ->
      let pager = Pager.create_file ~page_size path in
      let id = Pager.alloc pager in
      let p = Page.create page_size in
      Page.set_i32 p 0 77;
      Pager.write pager id p;
      Pager.close pager;
      (* A torn final write: half a page of garbage past the end. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (String.make (page_size / 2) 'x');
      close_out oc;
      Alcotest.(check bool) "default open rejects" true
        (try
           ignore (Pager.open_file ~page_size path);
           false
         with Invalid_argument _ -> true);
      let pager = Pager.open_file ~page_size ~partial_tail:`Truncate path in
      Fun.protect
        ~finally:(fun () -> Pager.close pager)
        (fun () ->
          Alcotest.(check int) "torn tail dropped" 1 (Pager.num_pages pager);
          Alcotest.(check int) "committed page intact" 77 (Page.get_i32 (Pager.read pager id) 0)))

(* --- crash-matrix sweeps --- *)

(* Sweep every kill point of the initial build: with a crash budget of
   [k] physical writes, [create] either completes (the budget outlived
   the build) or crashes; a crashed file must never open to a tree — the
   commit flip is the last write of [create], so the pre-op state is "no
   index yet" — and fsck must be able to salvage it. *)
let test_crash_matrix_build () =
  let entries = Helpers.random_entries ~n:250 ~seed:11 in
  with_temp2 (fun path out ->
      let k = ref 0 in
      let finished = ref false in
      while not !finished do
        if !k > 2000 then Alcotest.fail "build crash sweep did not terminate";
        (try Sys.remove path with Sys_error _ -> ());
        let fp = Failpoint.create (Failpoint.crash_after !k) in
        (match
           Index_file.create ~page_size ~crash:fp path ~build:(fun pool ->
               Prtree.load pool entries)
         with
        | idx ->
            Index_file.close idx;
            finished := true
        | exception Failpoint.Simulated_crash _ ->
            Alcotest.(check int) "crash counted" 1 (Failpoint.injected fp).Failpoint.crashes;
            (* The torn build must be recognized as "no index", not
               served as a partial tree. *)
            (match Index_file.open_ ~page_size path with
            | idx ->
                Alcotest.failf "crashed build at k=%d opened to a tree of %d entries" !k
                  (Rtree.count (Index_file.tree idx))
            | exception (Failure _ | Invalid_argument _) -> ()));
        incr k
      done;
      (* The completed file answers queries; and fsck of a torn build
         (re-crash one early kill point) can salvage into a fresh index. *)
      let idx = Index_file.open_ ~page_size path in
      Alcotest.(check int) "entries" 250 (Rtree.count (Index_file.tree idx));
      Index_file.close idx;
      Sys.remove path;
      let fp = Failpoint.create (Failpoint.crash_after (!k / 2)) in
      (try
         ignore
           (Index_file.create ~page_size ~crash:fp path ~build:(fun pool ->
                Prtree.load pool entries))
       with Failpoint.Simulated_crash _ -> ());
      let report =
        Index_file.fsck ~page_size ~rebuild:(out, fun pool es -> Prtree.load pool es) path
      in
      match report.Index_file.fsck_salvaged with
      | None -> Alcotest.fail "fsck --rebuild salvaged nothing"
      | Some (_, rebuilt) ->
          let idx = Index_file.open_ ~page_size rebuilt in
          Alcotest.(check bool) "salvaged index validates" true
            (ignore (Audit.validate (Index_file.tree idx));
             true);
          Index_file.close idx)

(* Sweep every kill point of one mutation: reopening after the crash
   must yield exactly the pre-op or the post-op id set, and fsck of the
   crashed file must find a sound tree. *)
let sweep_mutation ~name ~mutate ~pre ~post pristine =
  with_temp (fun work ->
      let k = ref 0 in
      let finished = ref false in
      let outcomes = ref (0, 0) in
      while not !finished do
        if !k > 2000 then Alcotest.fail (name ^ " crash sweep did not terminate");
        copy_file pristine work;
        let fp = Failpoint.create (Failpoint.crash_after !k) in
        let idx = Index_file.open_ ~page_size ~crash:fp work in
        (match Index_file.update idx mutate with
        | _ ->
            Index_file.close idx;
            finished := true
        | exception Failpoint.Simulated_crash _ ->
            let report = Index_file.fsck ~page_size work in
            Alcotest.(check bool)
              (Printf.sprintf "%s k=%d: fsck finds a sound tree" name !k)
              true report.Index_file.fsck_tree_ok;
            let idx = Index_file.open_ ~page_size work in
            let got = ids (Index_file.tree idx) in
            Index_file.close idx;
            let rolled_back, committed = !outcomes in
            if got = pre then outcomes := (rolled_back + 1, committed)
            else if got = post then outcomes := (rolled_back, committed + 1)
            else
              Alcotest.failf "%s crash at k=%d reopened to a hybrid state (%d entries)" name !k
                (List.length got));
        incr k
      done;
      (* The surviving run committed: the work file is post-op. *)
      let idx = Index_file.open_ ~page_size work in
      Alcotest.(check bool) (name ^ ": surviving run is post-op") true
        (ids (Index_file.tree idx) = post);
      Index_file.close idx;
      let rolled_back, committed = !outcomes in
      Alcotest.(check bool)
        (Printf.sprintf "%s: some crashes rolled back (%d pre / %d post over %d kill points)" name
           rolled_back committed !k)
        true (rolled_back > 0))

let make_pristine path entries =
  let idx = Index_file.create ~page_size path ~build:(fun pool -> Prtree.load pool entries) in
  Index_file.close idx

let test_crash_matrix_insert () =
  let entries = Helpers.random_entries ~n:250 ~seed:5 in
  with_temp (fun pristine ->
      make_pristine pristine entries;
      let fresh = Entry.make (Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.45 ~ymax:0.45) 100_000 in
      let pre = List.init 250 Fun.id in
      let post = List.sort Int.compare (100_000 :: pre) in
      sweep_mutation ~name:"insert" ~mutate:(fun tree -> Dynamic.insert tree fresh) ~pre ~post
        pristine)

let test_crash_matrix_delete () =
  let entries = Helpers.random_entries ~n:250 ~seed:6 in
  with_temp (fun pristine ->
      make_pristine pristine entries;
      let victim = entries.(137) in
      let pre = List.init 250 Fun.id in
      let post = List.filter (fun i -> i <> 137) pre in
      sweep_mutation ~name:"delete"
        ~mutate:(fun tree -> ignore (Dynamic.delete tree victim))
        ~pre ~post pristine)

(* --- targeted superblock damage --- *)

let newest_slot path =
  let pager = Pager.open_file ~page_size path in
  let slots = Superblock.inspect pager in
  Pager.close pager;
  let commit_of = function Superblock.Slot_valid st -> st.Superblock.commit | _ -> -1 in
  if commit_of slots.(0) >= commit_of slots.(1) then 0 else 1

let insert_777 path =
  let idx = Index_file.open_ ~page_size path in
  Index_file.update idx (fun tree ->
      Dynamic.insert tree (Entry.make (Rect.make ~xmin:0.1 ~ymin:0.1 ~xmax:0.2 ~ymax:0.2) 777));
  Index_file.close idx

let test_newest_slot_damage_rolls_back () =
  let entries = Helpers.random_entries ~n:200 ~seed:8 in
  with_temp (fun path ->
      make_pristine path entries;
      insert_777 path;
      (* Tear the newest slot — a torn commit write.  The twin (which
         still names the transaction's journal) takes over: recovery
         replays the journal back to the pre-insert tree and persists it
         as a fresh commit, rewriting the torn slot in the process. *)
      let newest = newest_slot path in
      flip_bit path ~pos:((newest * page_size) + 40) ~bit:0;
      let idx = Index_file.open_ ~page_size path in
      Alcotest.(check bool) "journal replayed" true
        ((Index_file.recovery idx).Superblock.rec_journal_pages > 0);
      Alcotest.(check int) "rolled back to twin" 200 (Rtree.count (Index_file.tree idx));
      Index_file.close idx;
      (* And the rewritten slot is valid again: reopening is clean. *)
      let idx = Index_file.open_ ~page_size path in
      Alcotest.(check int) "stable after repair" 200 (Rtree.count (Index_file.tree idx));
      Index_file.close idx)

let test_older_slot_damage_is_repaired () =
  let entries = Helpers.random_entries ~n:200 ~seed:9 in
  with_temp (fun path ->
      make_pristine path entries;
      insert_777 path;
      (* Tear the OLDER slot: the committed (post-insert) state stays
         live, and open repairs the damaged twin so a later torn commit
         can never leave zero valid slots. *)
      let older = 1 - newest_slot path in
      flip_bit path ~pos:((older * page_size) + 40) ~bit:0;
      let idx = Index_file.open_ ~page_size path in
      Alcotest.(check bool) "twin repaired" true
        (Index_file.recovery idx).Superblock.rec_slot_repaired;
      Alcotest.(check int) "committed state kept" 201 (Rtree.count (Index_file.tree idx));
      Index_file.close idx;
      let pager = Pager.open_file ~page_size path in
      let both_valid =
        Array.for_all
          (function Superblock.Slot_valid _ -> true | _ -> false)
          (Superblock.inspect pager)
      in
      Pager.close pager;
      Alcotest.(check bool) "both slots valid after repair" true both_valid)

(* --- another on-disk format ---

   A file written by format 2 (row node pages) or format 3 (columns in
   build order) has intact, checksummed pages of its own epoch.  It is
   refused by name, not reported as damage, and salvage takes nothing
   from it: a page of another epoch is never decoded. *)

let test_old_format_refused epoch () =
  let entries = Helpers.random_entries ~n:300 ~seed:12 in
  let message =
    Printf.sprintf "index format %d; this build reads format 4: rebuild it from its dataset" epoch
  in
  Alcotest.(check int) "this build's format" 4 Page.format_epoch;
  with_temp2 (fun path out ->
      make_pristine path entries;
      let refused what =
        match Index_file.open_ ~page_size path with
        | idx ->
            Index_file.close idx;
            Alcotest.failf "%s: a format-%d index opened" what epoch
        | exception Superblock.Unsupported_format found ->
            Alcotest.(check int) (what ^ ": the format found") epoch found;
            Alcotest.(check string) (what ^ ": the message") message
              (Superblock.unsupported_format_message found)
      in
      Helpers.restamp_epoch ~page_size ~only:[ 0; 1 ] path ~epoch;
      refused "both superblock slots";
      Helpers.restamp_epoch ~page_size path ~epoch;
      refused "every page";
      let report =
        Index_file.fsck ~page_size ~rebuild:(out, fun pool es -> Prtree.load pool es) path
      in
      Alcotest.(check (option string)) "fsck names the format" (Some message)
        report.Index_file.fsck_error;
      match report.Index_file.fsck_salvaged with
      | Some (n, _) -> Alcotest.(check int) "salvage takes no page" 0 n
      | None -> Alcotest.fail "fsck --rebuild did not run")

(* fsck --rebuild of an intact file takes back every entry: salvage
   reads each page's kind and count where the node format puts them. *)
let test_salvage_intact () =
  let entries = Helpers.random_entries ~n:3000 ~seed:14 in
  let expected = Array.to_list entries |> List.map Entry.id |> List.sort Int.compare in
  List.iter
    (fun page_size ->
      with_temp2 (fun path out ->
          let idx =
            Index_file.create ~page_size path ~build:(fun pool -> Prtree.load pool entries)
          in
          Index_file.close idx;
          let report =
            Index_file.fsck ~page_size ~rebuild:(out, fun pool es -> Prtree.load pool es) path
          in
          let what = Printf.sprintf "page size %d" page_size in
          (match report.Index_file.fsck_salvaged with
          | Some (n, _) -> Alcotest.(check int) (what ^ ": entries salvaged") 3000 n
          | None -> Alcotest.fail "fsck --rebuild did not run");
          let idx = Index_file.open_ ~page_size out in
          Alcotest.(check (list int)) (what ^ ": the same ids") expected
            (ids (Index_file.tree idx));
          Index_file.close idx))
    [ page_size; Pager.default_page_size ]

(* --- single-bit corruption never yields a silent wrong answer --- *)

let test_bit_flip_never_wrong_answer () =
  let entries = Helpers.random_entries ~n:200 ~seed:13 in
  with_temp (fun path ->
      make_pristine path entries;
      let oracle = List.init 200 Fun.id in
      let bytes = (Unix.stat path).Unix.st_size in
      let node_bytes = bytes - (Superblock.pages * page_size) in
      let rng = Rng.create 99 in
      let corrupt_detected = ref 0 in
      for _ = 1 to 60 do
        let pos = (Superblock.pages * page_size) + Rng.int rng node_bytes in
        let bit = Rng.int rng 8 in
        flip_bit path ~pos ~bit;
        (match Index_file.open_ ~page_size path with
        | idx -> (
            match ids (Index_file.tree idx) with
            | got ->
                Index_file.close idx;
                if got <> oracle then
                  Alcotest.failf "bit %d of byte %d flipped: silent wrong answer" bit pos
            | exception Pager.Corrupt_page _ ->
                incr corrupt_detected;
                Pager.close (Index_file.pager idx))
        | exception Pager.Corrupt_page _ -> incr corrupt_detected);
        flip_bit path ~pos ~bit
      done;
      Alcotest.(check bool)
        (Printf.sprintf "checksum caught %d/60 corruptions" !corrupt_detected)
        true (!corrupt_detected > 0))

(* --- the qcheck property: random op, random kill point --- *)

let crash_property =
  QCheck.Test.make ~name:"random kill point: reopen is pre-op or post-op" ~count:30
    QCheck.(triple (int_bound 1000) (int_bound 120) bool)
    (fun (seed, k, is_insert) ->
      let n = 120 + (seed mod 80) in
      let entries = Helpers.random_entries ~n ~seed in
      with_temp (fun path ->
          make_pristine path entries;
          let pre = List.init n Fun.id in
          let mutate, post =
            if is_insert then
              ( (fun tree ->
                  Dynamic.insert tree
                    (Entry.make (Rect.make ~xmin:0.3 ~ymin:0.3 ~xmax:0.35 ~ymax:0.35) 100_000)),
                List.sort Int.compare (100_000 :: pre) )
            else
              let victim = seed mod n in
              ( (fun tree -> ignore (Dynamic.delete tree entries.(victim))),
                List.filter (fun i -> i <> victim) pre )
          in
          let fp = Failpoint.create (Failpoint.crash_after k) in
          let idx = Index_file.open_ ~page_size ~crash:fp path in
          let crashed =
            match Index_file.update idx mutate with
            | _ ->
                Index_file.close idx;
                false
            | exception Failpoint.Simulated_crash _ -> true
          in
          let idx = Index_file.open_ ~page_size path in
          let got = ids (Index_file.tree idx) in
          Index_file.close idx;
          if crashed then got = pre || got = post else got = post))

let suite =
  [
    Alcotest.test_case "crc32c: check value" `Quick test_crc32c_vector;
    Alcotest.test_case "trailer: stamp/check roundtrip" `Quick test_stamp_check_roundtrip;
    Alcotest.test_case "trailer: detects bit flips" `Quick test_check_detects_bit_flips;
    Alcotest.test_case "trailer: stale epoch" `Quick test_stale_epoch;
    Alcotest.test_case "pager: recycled pages zero-filled" `Quick test_alloc_zero_fills_recycled;
    Alcotest.test_case "pager: corrupt page on file read" `Quick test_corrupt_page_on_file_read;
    Alcotest.test_case "pager: torn final write" `Quick test_partial_tail_reject_and_truncate;
    Alcotest.test_case "crash matrix: build" `Quick test_crash_matrix_build;
    Alcotest.test_case "crash matrix: insert" `Quick test_crash_matrix_insert;
    Alcotest.test_case "crash matrix: delete" `Quick test_crash_matrix_delete;
    Alcotest.test_case "superblock: newest-slot damage rolls back" `Quick
      test_newest_slot_damage_rolls_back;
    Alcotest.test_case "superblock: older-slot damage repaired" `Quick
      test_older_slot_damage_is_repaired;
    Alcotest.test_case "corruption: no silent wrong answers" `Quick
      test_bit_flip_never_wrong_answer;
    Helpers.qcheck_case crash_property;
    Alcotest.test_case "format: a format-2 index is refused by name" `Quick
      (test_old_format_refused 2);
    Alcotest.test_case "format: a format-3 index is refused by name" `Quick
      (test_old_format_refused 3);
    Alcotest.test_case "salvage: fsck --rebuild of an intact index takes every entry" `Quick
      test_salvage_intact;
  ]
