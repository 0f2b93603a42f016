(* Crash-consistent persistent index files.

   An index file is a paged device managed by {!Prt_storage.Superblock}:
   pages 0/1 hold the shadow superblock pair, and the R-tree's root /
   height / count live in the superblock metadata blob, so publishing a
   new tree state is a single atomic page flip.  Mutations run inside a
   superblock transaction: the pager journals the pre-image of every
   committed page before its first in-place overwrite, frees are
   deferred to the commit point, and a crash at any page-write boundary
   reopens to either the pre-operation or the post-operation tree.

   This module is the glue used by the CLI (`prt build/insert/delete`)
   and by the crash-matrix harness; the tree algorithms themselves are
   untouched by crash consistency.  [fsck] is the analysis/repair
   entry point behind `prt fsck`. *)

module Pager = Prt_storage.Pager
module Page = Prt_storage.Page
module Buffer_pool = Prt_storage.Buffer_pool
module Superblock = Prt_storage.Superblock
module Scrub = Prt_storage.Scrub
module Failpoint = Prt_storage.Failpoint
module Quarantine = Prt_storage.Quarantine
module Mmap_pager = Prt_storage.Mmap_pager

type backend = [ `Auto | `Mmap | `Pread ]

type t = {
  pool : Buffer_pool.t;
  sb : Superblock.t;
  mutable tree : Rtree.t;
  recovery : Superblock.recovery;
  quarantine : Quarantine.t;
  shadow : bool;  (* snapshot post-images of every committed txn *)
  mutable shadow_head : int;  (* committed shadow directory head, -1 = none *)
  scrub_cursor : Scrub.cursor;
  mutable mm : Mmap_pager.t option;  (* mmap read backend, None = pread *)
  mutable closed : bool;
}

(* Buffer-pool pages per open file. *)
let cache_pages = 4096

(* Tree metadata blob stored in the superblock: magic "PRTR", then
   root / height / count and the head of the post-image shadow chain
   (-1 when there is none), 20 bytes. *)
let meta_magic = 0x50525452
let meta_len = 20

let encode_meta_ext ~shadow_head tree =
  let b = Bytes.create meta_len in
  Bytes.set_int32_le b 0 (Int32.of_int meta_magic);
  Bytes.set_int32_le b 4 (Int32.of_int (Rtree.root tree));
  Bytes.set_int32_le b 8 (Int32.of_int (Rtree.height tree));
  Bytes.set_int32_le b 12 (Int32.of_int (Rtree.count tree));
  Bytes.set_int32_le b 16 (Int32.of_int shadow_head);
  b

let encode_meta tree = encode_meta_ext ~shadow_head:(-1) tree

let meta_ok meta =
  Bytes.length meta = meta_len && Int32.to_int (Bytes.get_int32_le meta 0) = meta_magic

let decode_meta pool meta =
  if not (meta_ok meta) then
    invalid_arg "Index_file: superblock does not carry R-tree metadata";
  Rtree.of_root ~pool
    ~root:(Int32.to_int (Bytes.get_int32_le meta 4))
    ~height:(Int32.to_int (Bytes.get_int32_le meta 8))
    ~count:(Int32.to_int (Bytes.get_int32_le meta 12))

let decode_shadow_head meta = if meta_ok meta then Int32.to_int (Bytes.get_int32_le meta 16) else -1

let tree t = t.tree
let pool t = t.pool
let pager t = Buffer_pool.pager t.pool
let superblock t = t.sb
let recovery t = t.recovery
let quarantine t = t.quarantine
let shadowed t = t.shadow
let read_backend t = match t.mm with Some _ -> "mmap" | None -> "pread"
let mmap_counters t = Option.map Mmap_pager.counters t.mm

(* Backend policy.  [`Auto] serves reads through a shared file mapping
   whenever the platform grants one — except when a crash failpoint is
   armed: fault injection intercepts pager reads, not mapped loads, so
   the resilience harnesses keep their pread-visible failure semantics.
   [`Mmap] attaches unconditionally (crash sweeps included — the MVCC
   torn-page probe needs exactly that), still degrading to pread if the
   file cannot be mapped.  [`Pread] opts out entirely. *)
let attach_backend backend ~crash ~path ~page_size ~sb =
  match backend with
  | `Pread -> None
  | `Auto when crash <> None -> None
  | `Auto | `Mmap ->
      Mmap_pager.attach ~path ~page_size ~gen:(Superblock.generation sb)

let install_backend t backend ~crash ~path =
  let mm =
    attach_backend backend ~crash ~path
      ~page_size:(Pager.page_size (pager t))
      ~sb:t.sb
  in
  t.mm <- mm;
  Rtree.set_mmap t.tree mm

(* If anything interrupts construction — including a simulated crash —
   close the pager so kill-point sweeps do not leak descriptors.  The
   cleanup close swallows only OS-level errors: a [Corrupt_page] or any
   logic exception must never be eaten here (bugfix sweep, PR 5). *)
let guarding pager f =
  match f () with
  | v -> v
  | exception e ->
      (try Pager.close pager with Unix.Unix_error _ -> ());
      raise e

(* --- post-image shadow chain ---

   Directory page payload layout (chained single pages, same shape as
   the pager's pre-image journal but a distinct magic):
     [0..3]   magic "PRSH"
     [4..7]   entry count on this page
     [8..11]  next directory page id, or -1
     [12..]   (original page id, copy page id) int32 pairs

   Written *inside* the transaction, after the buffer pool flush and
   just before commit: every page the transaction modified is copied —
   post-image, i.e. exactly the content being committed — to freshly
   allocated pages, and the chain head rides in the committed metadata.
   The pre-image journal is useless as a repair source for committed
   state (its copies predate the commit, and its pages are freed at the
   commit anyway); these post-images are what {!Scrub.online} heals
   from.  A crash before the commit discards the new chain with the
   rest of the transaction; the previous chain's pages are freed
   (deferred) in the same transaction, so they stay intact if it never
   commits. *)

let shadow_magic = 0x50525348 (* "PRSH" *)

let shadow_dir_capacity pgr = (Pager.payload_size pgr - 12) / 8

(* Walk a committed shadow chain.  Damage to the chain itself is
   tolerated: the walk stops and reports what it reached (the chain is
   a repair aid, never required for correctness). *)
let shadow_iter pgr ~head ~f =
  let rec walk dir =
    if dir >= 0 && dir < Pager.num_pages pgr then begin
      match Pager.read pgr dir with
      | exception (Pager.Corrupt_page _ | Pager.Io_error _) -> ()
      | page ->
          if Page.get_i32 page 0 = shadow_magic then begin
            let n = Page.get_i32 page 4 in
            let next = Page.get_i32 page 8 in
            if n >= 0 && n <= shadow_dir_capacity pgr then begin
              for i = 0 to n - 1 do
                f ~dir
                  ~orig:(Page.get_i32 page (12 + (8 * i)))
                  ~copy:(Page.get_i32 page (12 + (8 * i) + 4))
              done;
              walk next
            end
          end
    end
  in
  walk head

let shadow_chain_pages pgr ~head =
  let acc = ref [] in
  let dirs = Hashtbl.create 8 in
  shadow_iter pgr ~head ~f:(fun ~dir ~orig:_ ~copy ->
      if not (Hashtbl.mem dirs dir) then begin
        Hashtbl.replace dirs dir ();
        acc := dir :: !acc
      end;
      acc := copy :: !acc);
  (* A chain whose head page holds zero entries still owns the head. *)
  if head >= 0 && head < Pager.num_pages pgr && not (Hashtbl.mem dirs head) then
    (match Pager.read pgr head with
    | page when Page.get_i32 page 0 = shadow_magic -> acc := head :: !acc
    | _ | (exception (Pager.Corrupt_page _ | Pager.Io_error _)) -> ());
  List.sort_uniq Int.compare !acc

let shadow_pages t = shadow_chain_pages (pager t) ~head:t.shadow_head

let shadow_lookup t id =
  if t.shadow_head < 0 then None
  else begin
    let found = ref None in
    shadow_iter (pager t) ~head:t.shadow_head ~f:(fun ~dir:_ ~orig ~copy ->
        if orig = id && !found = None then found := Some copy);
    match !found with
    | None -> None
    | Some copy -> (
        (* The copy must itself verify — a damaged shadow cannot heal. *)
        match Pager.read (pager t) copy with
        | img -> Some img
        | exception (Pager.Corrupt_page _ | Pager.Io_error _) -> None)
  end

(* Inside the transaction, after the flush: drop the previous chain
   (deferred frees — intact if this txn never commits), snapshot the
   post-image of every modified page, and return the new chain head to
   ride in the committed metadata. *)
let write_shadow t =
  let pgr = pager t in
  List.iter (fun id -> Buffer_pool.free t.pool id) (shadow_pages t);
  let modified = Pager.txn_modified_pages pgr in
  if modified = [] then -1
  else begin
    let pairs =
      List.map
        (fun id ->
          let img = Pager.read pgr id in
          let cid = Buffer_pool.alloc t.pool in
          Pager.write pgr cid img;
          (id, cid))
        modified
    in
    let cap = shadow_dir_capacity pgr in
    let rec chunk = function
      | [] -> []
      | l ->
          let rec take k acc = function
            | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let page, rest = take cap [] l in
          page :: chunk rest
    in
    (* Write the chain back to front so each directory page already
       knows its successor. *)
    List.fold_left
      (fun next entries ->
        let dir = Buffer_pool.alloc t.pool in
        let page = Page.create (Pager.page_size pgr) in
        Page.set_i32 page 0 shadow_magic;
        Page.set_i32 page 4 (List.length entries);
        Page.set_i32 page 8 next;
        List.iteri
          (fun i (orig, copy) ->
            Page.set_i32 page (12 + (8 * i)) orig;
            Page.set_i32 page (12 + (8 * i) + 4) copy)
          entries;
        Pager.write pgr dir page;
        dir)
      (-1)
      (List.rev (chunk pairs))
  end

let commit_meta t =
  if t.shadow then begin
    let head = write_shadow t in
    t.shadow_head <- head;
    encode_meta_ext ~shadow_head:head t.tree
  end
  else encode_meta t.tree

let create ?(page_size = Pager.default_page_size) ?crash
    ?(shadow = false) ?(backend = `Auto) path ~build =
  let pager = Pager.create_file ~page_size path in
  guarding pager (fun () ->
      (match crash with Some fp -> Pager.arm_crash pager fp | None -> ());
      let sb = Superblock.format pager ~meta:Bytes.empty in
      let pool = Buffer_pool.create ~capacity:cache_pages pager in
      Superblock.begin_txn sb;
      let tree = build pool in
      Buffer_pool.flush pool;
      let t =
        {
          pool;
          sb;
          tree;
          recovery = Superblock.no_recovery;
          quarantine = Quarantine.create ();
          shadow;
          shadow_head = -1;
          scrub_cursor = Scrub.cursor ();
          mm = None;
          closed = false;
        }
      in
      Superblock.commit_txn sb ~meta:(commit_meta t);
      (* Attach after the commit: the mapping must see the committed
         bytes of a non-empty file. *)
      install_backend t backend ~crash ~path;
      t)

let open_ ?(page_size = Pager.default_page_size) ?crash
    ?shadow ?(backend = `Auto) path =
  let pager = Pager.open_file ~page_size path in
  guarding pager (fun () ->
      let sb, recovery = Superblock.open_ pager in
      (* Arm crash injection only after recovery, so a harness sweeping
         kill points of the *next* operation does not kill recovery
         itself. *)
      (match crash with Some fp -> Pager.arm_crash pager fp | None -> ());
      let pool = Buffer_pool.create ~capacity:cache_pages pager in
      let meta = Superblock.meta sb in
      let tree = decode_meta pool meta in
      let shadow_head = decode_shadow_head meta in
      (* Shadowing is sticky: a file that carries a chain keeps writing
         one, and [?shadow:true] turns it on for the next commit. *)
      let shadow = shadow_head >= 0 || Option.value shadow ~default:false in
      let t =
        {
          pool;
          sb;
          tree;
          recovery;
          quarantine = Quarantine.create ();
          shadow;
          shadow_head;
          scrub_cursor = Scrub.cursor ();
          mm = None;
          closed = false;
        }
      in
      install_backend t backend ~crash ~path;
      t)

(* Run a mutation inside a transaction.  If [f] raises (including a
   {!Failpoint.Simulated_crash}), the transaction is left uncommitted
   and the handle is closed: the on-disk journal makes the next [open_]
   roll back to the pre-operation tree. *)
let update t f =
  guarding (pager t) (fun () ->
      Superblock.begin_txn t.sb;
      let v = f t.tree in
      Buffer_pool.flush t.pool;
      Superblock.commit_txn t.sb ~meta:(commit_meta t);
      (* The commit is durable: remap if the file grew and retag the
         mmap backend's CRC memo with the new committed generation, so
         no pre-commit verification of an overwritten page survives. *)
      (match t.mm with
      | Some mm -> Mmap_pager.refresh mm ~gen:(Superblock.generation t.sb)
      | None -> ());
      v)

(* --- generation snapshots ---

   A snapshot pins the current committed superblock generation: the
   pager retains pre-images of pages later transactions overwrite and
   parks pages they free, so a descent from the snapshot's root (read
   via [Pager.read_shared ~gen]) sees exactly that commit's tree even
   while updates run concurrently.  No flush is needed when pinning —
   committed state is by construction on the device (commit follows the
   pool flush), and the buffer pool's dirty pages always belong to a
   *later*, uncommitted generation. *)

type snapshot = Superblock.snap

let snapshot t = Superblock.pin t.sb
let snapshot_gen = Superblock.snap_gen
let release_snapshot s = ignore (Superblock.release s)

let snapshot_view s =
  let meta = Superblock.snap_meta s in
  if not (meta_ok meta) then
    invalid_arg "Index_file.snapshot_view: superblock does not carry R-tree metadata";
  {
    Rtree.sv_gen = Superblock.snap_gen s;
    sv_root = Int32.to_int (Bytes.get_int32_le meta 4);
    sv_height = Int32.to_int (Bytes.get_int32_le meta 8);
  }

let with_snapshot t f =
  let s = snapshot t in
  Fun.protect ~finally:(fun () -> release_snapshot s) (fun () -> f (snapshot_view s))

(* A batched executor whose snapshot provider pins the file's committed
   generation, so whole batches are immune to concurrent commits; the
   release hook drops the pin and reports the new floor for cache
   pruning.  The executor shares the file's quarantine, so damage found
   by single-domain queries, batches, and the scrub all land in one
   registry. *)
let executor ?max_in_flight t =
  Qexec.create ?max_in_flight ~quarantine:t.quarantine
    ~snapshot:(fun () ->
      let s = snapshot t in
      let v = snapshot_view s in
      {
        Qexec.snap_gen = v.Rtree.sv_gen;
        snap_root = v.Rtree.sv_root;
        snap_height = v.Rtree.sv_height;
        snap_release = (fun () -> Superblock.release s);
      })
    t.tree

(* One increment of the self-healing pass, between transactions/batches:
   verify the next [pages] pages, heal what the shadow chain can prove,
   quarantine the rest.  Healing writes run outside a transaction —
   they restore committed content byte-for-byte, so a crash mid-heal
   just leaves the page damaged for the next pass. *)
let scrub_online ?(pages = 64) t =
  Buffer_pool.flush t.pool;
  let pgr = pager t in
  let skip id = id < Superblock.pages || Pager.is_free pgr id in
  Scrub.online ~skip
    ~repair:(fun id -> shadow_lookup t id)
    ~quarantine:t.quarantine ~cursor:t.scrub_cursor ~pages pgr

(* Idempotent: a double close is a no-op, and a close after a crash
   path (where [guarding] already closed the pager) still releases any
   generation pins — a leaked pin would park deferred frees forever. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.mm with
    | Some mm ->
        t.mm <- None;
        Rtree.set_mmap t.tree None;
        Mmap_pager.close mm
    | None -> ());
    Superblock.release_all_pins t.sb;
    if not (Pager.is_closed (pager t)) then begin
      Buffer_pool.flush t.pool;
      Pager.close (pager t)
    end
  end

(* --- fsck --- *)

type fsck_report = {
  fsck_tail_bytes : int;  (* torn trailing partial page dropped on open *)
  fsck_slots : string array;  (* human description of both superblock slots *)
  fsck_recovery : Superblock.recovery option;  (* None: file unopenable *)
  fsck_commit : int option;
  fsck_error : string option;  (* why the file could not be opened *)
  fsck_tree_ok : bool;
  fsck_tree_error : string option;
  fsck_entries : int option;  (* entries reachable from the root *)
  fsck_scrub : Scrub.report option;
  fsck_salvaged : (int * string) option;  (* entries salvaged, output path *)
}

let describe_slot = function
  | Superblock.Slot_valid st -> Printf.sprintf "valid (commit %d)" st.Superblock.commit
  | Superblock.Slot_empty -> "empty (never flipped)"
  | Superblock.Slot_stale e -> Printf.sprintf "bad: stale format epoch %d" e
  | Superblock.Slot_bad msg -> "bad: " ^ msg

(* Salvage every checksummed-valid leaf entry from the device, skipping
   the superblock pair and free pages.  A page counts as a leaf by
   [Node]'s own reading of its header, so salvage follows the page
   format; the header trails the columns, where a directory page of the
   journal or the shadow chain may hold any bytes, hence the zero-tail
   test.  Pre-image journal copies can duplicate a live leaf, so entries
   are deduplicated by (id, rect); note that salvage can resurrect
   entries whose delete was the very operation that crashed — it is a
   disaster-recovery sweep, not a transaction log. *)
let salvageable_leaf buf ~cap =
  match Node.page_kind buf with
  | Node.Leaf -> Node.page_length buf <= cap && Node.page_tail_zero buf
  | Node.Internal | (exception Invalid_argument _) -> false

let salvage_entries pager =
  let page_size = Pager.page_size pager in
  let cap = Node.capacity ~page_size in
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let n = ref 0 in
  for id = Superblock.pages to Pager.num_pages pager - 1 do
    if not (Pager.is_free pager id) then begin
      let buf = Pager.read_raw pager id in
      match Page.check buf with
      | Page.Valid _ when salvageable_leaf buf ~cap -> (
          match Node.decode buf with
          | node when Node.kind node = Node.Leaf ->
              Array.iter
                (fun e ->
                  let r = Entry.rect e in
                  let key =
                    ( Entry.id e,
                      Prt_geom.Rect.xmin r,
                      Prt_geom.Rect.ymin r,
                      Prt_geom.Rect.xmax r,
                      Prt_geom.Rect.ymax r )
                  in
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.replace seen key ();
                    out := e :: !out;
                    incr n
                  end)
                (Node.entries node)
          | _ -> ()
          | exception Invalid_argument _ -> ())
      | _ -> ()
    end
  done;
  Array.of_list (List.rev !out)

let fsck ?(page_size = Pager.default_page_size) ?rebuild path =
  let file_bytes = (Unix.stat path).Unix.st_size in
  let fsck_tail_bytes = file_bytes mod page_size in
  let pager = Pager.open_file ~page_size ~partial_tail:`Truncate path in
  Fun.protect
    ~finally:(fun () -> Pager.close pager)
    (fun () ->
      let fsck_slots = Array.map describe_slot (Superblock.inspect pager) in
      let opened =
        match Superblock.open_ pager with
        | sb, recovery -> Ok (sb, recovery)
        | exception (Failure msg | Invalid_argument msg) -> Error msg
        | exception Superblock.Unsupported_format e ->
            Error (Superblock.unsupported_format_message e)
        | exception Pager.Corrupt_page msg -> Error ("corrupt page during recovery: " ^ msg)
      in
      let fsck_recovery, fsck_commit, fsck_error, tree_state =
        match opened with
        | Error msg -> (None, None, Some msg, Error msg)
        | Ok (sb, recovery) -> (
            ( Some recovery,
              Some (Superblock.commit_count sb),
              None,
              let pool = Buffer_pool.create ~capacity:cache_pages (Superblock.pager sb) in
              match decode_meta pool (Superblock.meta sb) with
              | tree -> Ok tree
              | exception Invalid_argument msg -> Error msg ))
      in
      (* Audit the tree, counting its entries and collecting the
         reachable page set; damage found on the walk marks the tree
         bad instead of aborting the whole fsck.  The post-image shadow
         chain (if the file carries one) is reachable too — directory
         and copy pages alike — so the orphan check does not flag it. *)
      let shadow_head =
        match opened with
        | Ok (sb, _) -> decode_shadow_head (Superblock.meta sb)
        | Error _ -> -1
      in
      let fsck_tree_ok, fsck_tree_error, fsck_entries, reachable =
        match tree_state with
        | Error msg -> (false, Some msg, None, None)
        | Ok tree -> (
            match Audit.validate tree with
            | report ->
                let pages = Hashtbl.create 256 in
                List.iter
                  (fun id -> Hashtbl.replace pages id ())
                  ((0 :: 1 :: report.Audit.pages) @ shadow_chain_pages pager ~head:shadow_head);
                (true, None, Some report.Audit.entries, Some (fun id -> Hashtbl.mem pages id))
            | exception Audit.Invalid v -> (false, Some (Fmt.str "%a" Audit.pp_violation v), None, None)
            | exception Pager.Io_error msg -> (false, Some msg, None, None))
      in
      let fsck_scrub =
        match opened with
        | Error _ -> Some (Scrub.run pager)
        | Ok _ -> Some (Scrub.run ~free:(fun id -> Pager.is_free pager id) ?reachable pager)
      in
      let fsck_salvaged =
        match rebuild with
        | None -> None
        | Some (output, load) ->
            (* Salvage means the file was damaged beyond in-place repair
               — a postmortem-worthy failure even when it succeeds. *)
            let entries = salvage_entries pager in
            Prt_obs.Flight.failure "fsck.salvage" ~arg:(Array.length entries) ~note:path;
            let rebuilt =
              create ~page_size output ~build:(fun pool -> load pool entries)
            in
            close rebuilt;
            Some (Array.length entries, output)
      in
      {
        fsck_tail_bytes;
        fsck_slots;
        fsck_recovery;
        fsck_commit;
        fsck_error;
        fsck_tree_ok;
        fsck_tree_error;
        fsck_entries;
        fsck_scrub;
        fsck_salvaged;
      })

let fsck_clean r =
  r.fsck_tail_bytes = 0 && r.fsck_error = None && r.fsck_tree_ok
  && (match r.fsck_scrub with Some s -> Scrub.clean s | None -> true)

let pp_fsck ppf r =
  Fmt.pf ppf "@[<v>";
  if r.fsck_tail_bytes > 0 then
    Fmt.pf ppf "torn final write: dropped %d trailing bytes@ " r.fsck_tail_bytes;
  Array.iteri (fun i d -> Fmt.pf ppf "superblock slot %d: %s@ " i d) r.fsck_slots;
  (match r.fsck_error with
  | Some msg -> Fmt.pf ppf "open failed: %s@ " msg
  | None -> ());
  (match r.fsck_recovery with
  | Some rec_ ->
      if rec_.Superblock.rec_journal_pages > 0 then
        Fmt.pf ppf "journal rollback: restored %d page(s)@ " rec_.Superblock.rec_journal_pages;
      if rec_.Superblock.rec_truncated_pages > 0 then
        Fmt.pf ppf "truncated %d uncommitted page(s)@ " rec_.Superblock.rec_truncated_pages;
      if rec_.Superblock.rec_slot_repaired then Fmt.pf ppf "repaired damaged superblock slot@ "
  | None -> ());
  (match r.fsck_commit with Some c -> Fmt.pf ppf "committed state: commit %d@ " c | None -> ());
  (match (r.fsck_tree_ok, r.fsck_tree_error) with
  | true, _ -> Fmt.pf ppf "tree: ok (%d entries)@ " (Option.value ~default:0 r.fsck_entries)
  | false, Some msg -> Fmt.pf ppf "tree: BAD (%s)@ " msg
  | false, None -> Fmt.pf ppf "tree: BAD@ ");
  (match r.fsck_scrub with Some s -> Fmt.pf ppf "scrub: %a@ " Scrub.pp_report s | None -> ());
  (match r.fsck_salvaged with
  | Some (n, out) -> Fmt.pf ppf "salvage: rebuilt %d entries into %s@ " n out
  | None -> ());
  Fmt.pf ppf "verdict: %s@]" (if fsck_clean r then "clean" else "issues found")
