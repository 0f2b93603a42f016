(* Shadow superblock pair: atomic commit for paged index files.

   Pages 0 and 1 of a formatted device hold two copies of the
   superblock; the live one is the copy with the highest commit counter
   that passes checksum verification, and a commit writes the *other*
   slot (slot = commit mod 2).  Because a superblock write is a single
   page write — and a torn superblock write just invalidates that slot's
   checksum, leaving the previous superblock live — publishing a new
   tree state is atomic.

   The in-place update algorithms (R*-tree insert/delete) rewrite
   committed pages directly, so a root flip alone cannot give
   pre-op-or-post-op atomicity.  A transaction therefore drives the
   pager's pre-image journal:

     begin_txn:
       1. journal head page allocated and written (empty directory)
       2. superblock flip: commit c+1, OLD metadata, journal = head
     ... data writes; first overwrite of a committed page is journalled,
         frees are deferred ...
     commit_txn:
       3. journal pages freed (deferred), superblock flip: commit c+2,
          NEW metadata, journal = none, free-list snapshot
       4. deferred frees promoted

   Crash before step 2 persists: the old superblock is live, the file is
   simply reopened (orphaned pages beyond its [used] count are
   truncated).  Crash between 2 and 3: the live superblock names the
   journal; recovery restores every pre-image, truncates, and restores
   the free list — the pre-op tree.  Crash after 3: the post-op tree.
   There is no window in which a hybrid state is reachable.

   Superblock payload layout (both slots identical):
     [0..3]    magic "PRSB"
     [4..7]    format version (2)
     [8..11]   commit counter
     [12..15]  page size (sanity-checked on open)
     [16..19]  used page count at commit
     [20..23]  journal directory head, or -1
     [24..27]  metadata length (0..64)
     [28..91]  caller metadata blob (tree root, height, count, ...)
     [92..95]  total free pages at commit
     [96..99]  free page ids actually stored below
     [100..]   free page ids, int32 each

   If the free list outgrows the slot ([free_capacity]), the excess ids
   are dropped from the snapshot: those pages leak on reopen (reported
   via the stored total), which is safe — strictly better than the
   previous format, which forgot the whole free list between sessions. *)

let magic = 0x50525342 (* "PRSB" *)
let version = 2
let pages = 2
let meta_off = 28
let meta_capacity = 64
let free_off = 100
let min_page_size = free_off + Page.trailer_size + 4

type state = {
  commit : int;
  used : int;
  journal : int;  (* directory head page id, or -1 *)
  meta : bytes;
  free_total : int;
  free : int list;
}

(* [gen] / [gen_meta] mirror [last.commit] / [last.meta] but are updated
   only when a state becomes *committed* (format, open_, commit_txn) —
   never at begin_txn, whose in-flight superblock flip must stay
   invisible to readers.  Both are written under [pin_lock] so a reader
   pinning concurrently with a commit gets a matching (gen, meta) pair.
   [pins] maps generation -> number of live snapshots of it. *)
type t = {
  pager : Pager.t;
  mutable last : state;
  mutable in_txn : bool;
  mutable gen : int;
  mutable gen_meta : bytes;
  pins : (int, int) Hashtbl.t;
  pin_lock : Mutex.t;
}

type snap = {
  snap_gen : int;
  snap_meta : bytes;  (* metadata blob as of snap_gen (a private copy) *)
  snap_sb : t;
  mutable snap_released : bool;
}

type recovery = {
  rec_journal_pages : int;  (* pre-images restored from the journal *)
  rec_truncated_pages : int;  (* uncommitted tail pages dropped *)
  rec_slot_repaired : bool;  (* a damaged slot was rewritten from the live one *)
}

let no_recovery = { rec_journal_pages = 0; rec_truncated_pages = 0; rec_slot_repaired = false }

let m_commits = Prt_obs.Metrics.counter "superblock.commits"
let m_recovered = Prt_obs.Metrics.counter "superblock.recovered_pages"

let free_capacity pager = (Pager.payload_size pager - free_off) / 4

let check_pager ctx pager =
  if Pager.page_size pager < min_page_size then
    invalid_arg
      (Printf.sprintf "Superblock.%s: page size %d below the %d-byte minimum" ctx
         (Pager.page_size pager) min_page_size)

let encode pager (st : state) =
  let page = Page.create (Pager.page_size pager) in
  Page.set_i32 page 0 magic;
  Page.set_i32 page 4 version;
  Page.set_i32 page 8 st.commit;
  Page.set_i32 page 12 (Pager.page_size pager);
  Page.set_i32 page 16 st.used;
  Page.set_i32 page 20 st.journal;
  let mlen = Bytes.length st.meta in
  if mlen > meta_capacity then invalid_arg "Superblock: metadata blob too large";
  Page.set_i32 page 24 mlen;
  Bytes.blit st.meta 0 page meta_off mlen;
  Page.set_i32 page 92 st.free_total;
  let cap = free_capacity pager in
  let stored = ref 0 in
  List.iteri
    (fun i id ->
      if i < cap then begin
        Page.set_i32 page (free_off + (4 * i)) id;
        incr stored
      end)
    st.free;
  Page.set_i32 page 96 !stored;
  page

let decode page =
  if Page.get_i32 page 0 <> magic then Error "bad magic"
  else if Page.get_i32 page 4 <> version then
    Error (Printf.sprintf "unsupported version %d" (Page.get_i32 page 4))
  else if Page.get_i32 page 12 <> Bytes.length page then
    Error
      (Printf.sprintf "page size mismatch: superblock says %d, device uses %d"
         (Page.get_i32 page 12) (Bytes.length page))
  else begin
    let mlen = Page.get_i32 page 24 in
    if mlen < 0 || mlen > meta_capacity then Error "bad metadata length"
    else begin
      let stored = Page.get_i32 page 96 in
      let free = ref [] in
      for i = stored - 1 downto 0 do
        free := Page.get_i32 page (free_off + (4 * i)) :: !free
      done;
      Ok
        {
          commit = Page.get_i32 page 8;
          used = Page.get_i32 page 16;
          journal = Page.get_i32 page 20;
          meta = Bytes.sub page meta_off mlen;
          free_total = Page.get_i32 page 92;
          free = !free;
        }
    end
  end

type slot = Slot_valid of state | Slot_empty | Slot_stale of int | Slot_bad of string

exception Unsupported_format of int

let unsupported_format_message found =
  Printf.sprintf "index format %d; this build reads format %d: rebuild it from its dataset" found
    Page.format_epoch

let () =
  Printexc.register_printer (function
    | Unsupported_format found -> Some ("Superblock: " ^ unsupported_format_message found)
    | _ -> None)

let inspect_slot pager id =
  if id >= Pager.num_pages pager then Slot_bad "missing (file too short)"
  else
    let page = Pager.read_raw pager id in
    match Page.check page with
    | Page.Fresh -> Slot_empty
    | Page.Torn -> Slot_bad "torn (checksum mismatch)"
    | Page.Stale_epoch e -> Slot_stale e
    | Page.Valid _ -> (
        match decode page with Ok st -> Slot_valid st | Error e -> Slot_bad e)

let inspect pager = [| inspect_slot pager 0; inspect_slot pager 1 |]

let write_slot pager (st : state) =
  let slot = st.commit mod 2 in
  Pager.write pager slot (encode pager st)

(* Format a fresh device: allocate the superblock pair and commit an
   empty state into slot 0 (slot 1 stays all-zero until the first
   flip). *)
let format pager ~meta =
  check_pager "format" pager;
  let s0 = Pager.alloc pager in
  let s1 = Pager.alloc pager in
  if s0 <> 0 || s1 <> 1 then
    invalid_arg "Superblock.format: device not fresh (superblock pages not 0 and 1)";
  let st =
    { commit = 0; used = Pager.num_pages pager; journal = -1; meta; free_total = 0; free = [] }
  in
  write_slot pager st;
  Pager.set_defer_frees pager true;
  {
    pager;
    last = st;
    in_txn = false;
    gen = st.commit;
    gen_meta = Bytes.copy meta;
    pins = Hashtbl.create 8;
    pin_lock = Mutex.create ();
  }

(* Open a formatted device: pick the newest valid slot, run journal
   recovery if the last transaction never committed, drop uncommitted
   tail pages, restore the free list, and repair the losing slot if it
   is damaged. *)
let open_ pager =
  check_pager "open_" pager;
  if Pager.num_pages pager < 1 then failwith "Superblock.open_: empty device";
  let slots = inspect pager in
  let live =
    match (slots.(0), slots.(1)) with
    | Slot_valid a, Slot_valid b -> Some (if a.commit >= b.commit then a else b)
    | Slot_valid a, (Slot_empty | Slot_stale _ | Slot_bad _) -> Some a
    | (Slot_empty | Slot_stale _ | Slot_bad _), Slot_valid b -> Some b
    | (Slot_empty | Slot_stale _ | Slot_bad _), (Slot_empty | Slot_stale _ | Slot_bad _) -> None
  in
  match live with
  | None -> (
      (* A checksummed slot of another epoch is no damage: the file was
         written by another format, whose every page this build refuses,
         so salvage could take nothing from it either. *)
      match (slots.(0), slots.(1)) with
      | Slot_stale e, _ | _, Slot_stale e -> raise (Unsupported_format e)
      | _ ->
          failwith
            "Superblock.open_: no valid superblock copy (both slots damaged); run fsck --rebuild")
  | Some st ->
      let recovered =
        if st.journal >= 0 then begin
          let n = Pager.recover_journal pager ~head:st.journal in
          Prt_obs.Metrics.add m_recovered n;
          n
        end
        else 0
      in
      let before = Pager.num_pages pager in
      if st.used < before then Pager.truncate pager ~used:st.used;
      Pager.set_free_list pager st.free;
      Pager.set_defer_frees pager true;
      (* If the last transaction never committed, persist the recovered
         pre-op state as a fresh commit so the journal is not replayed
         (and its pages not leaked) on every subsequent open. *)
      let st =
        if st.journal >= 0 then begin
          let st' =
            {
              st with
              commit = st.commit + 1;
              journal = -1;
              used = Pager.num_pages pager;
              free = Pager.free_pages pager;
              free_total = List.length (Pager.free_pages pager);
            }
          in
          write_slot pager st';
          st'
        end
        else st
      in
      (* Repair a damaged twin from the live copy so a later torn commit
         can never leave the device with zero valid slots.  The twin is
         rewritten with commit-1, whose parity lands it on the right
         slot; its payload mirrors the live state, which is consistent
         if it ever has to take over. *)
      let repaired =
        match slots.(1 - (st.commit mod 2)) with
        | (Slot_bad _ | Slot_stale _) when st.commit >= 1 ->
            write_slot pager { st with commit = st.commit - 1 };
            true
        | Slot_valid _ | Slot_empty | Slot_bad _ | Slot_stale _ -> false
      in
      let t =
        {
          pager;
          last = st;
          in_txn = false;
          gen = st.commit;
          gen_meta = Bytes.copy st.meta;
          pins = Hashtbl.create 8;
          pin_lock = Mutex.create ();
        }
      in
      ( t,
        {
          rec_journal_pages = recovered;
          rec_truncated_pages = (before - Pager.num_pages pager);
          rec_slot_repaired = repaired;
        } )

let meta t = Bytes.copy t.last.meta
let commit_count t = t.last.commit
let in_txn t = t.in_txn
let pager t = t.pager
let free_dropped t = t.last.free_total - List.length t.last.free

(* --- Generation pins (snapshot isolation) ---

   Lock discipline: everything below takes [pin_lock] for the registry
   bookkeeping, drops it, and only then calls into the pager's version
   store ([Pager.collect] takes the pager's own mvcc lock) — the two
   locks are never held together. *)

let generation t = t.gen

let pinned_floor_locked t =
  Hashtbl.fold (fun g _ acc -> min g acc) t.pins t.gen

let pinned_floor t = Mutex.protect t.pin_lock (fun () -> pinned_floor_locked t)
let pin_count t = Mutex.protect t.pin_lock (fun () -> Hashtbl.fold (fun _ n acc -> acc + n) t.pins 0)

let pin t =
  Mutex.protect t.pin_lock (fun () ->
      let g = t.gen in
      let n = Option.value (Hashtbl.find_opt t.pins g) ~default:0 in
      Hashtbl.replace t.pins g (n + 1);
      { snap_gen = g; snap_meta = Bytes.copy t.gen_meta; snap_sb = t; snap_released = false })

let snap_gen s = s.snap_gen
let snap_meta s = Bytes.copy s.snap_meta

(* Releasing the last pin of a generation only drops superseded
   *versions* (safe from any domain, even on a closed pager); parked
   frees are promoted by the writing domain at its next begin/commit. *)
let release s =
  let t = s.snap_sb in
  let dropped =
    Mutex.protect t.pin_lock (fun () ->
        if s.snap_released then None
        else begin
          s.snap_released <- true;
          (match Hashtbl.find_opt t.pins s.snap_gen with
          | Some n when n > 1 -> Hashtbl.replace t.pins s.snap_gen (n - 1)
          | Some _ -> Hashtbl.remove t.pins s.snap_gen
          | None -> ());
          Some (pinned_floor_locked t)
        end)
  in
  match dropped with
  | Some floor ->
      Pager.collect t.pager ~upto:floor;
      floor
  | None -> pinned_floor t

let release_all_pins t =
  let any = Mutex.protect t.pin_lock (fun () ->
      let any = Hashtbl.length t.pins > 0 in
      Hashtbl.reset t.pins;
      any)
  in
  if any then Pager.collect t.pager ~upto:(pinned_floor t)

let begin_txn t =
  if t.in_txn then invalid_arg "Superblock.begin_txn: transaction already open";
  (* Writer-domain GC point: promote any parked frees no pin can still
     need, then start retaining pre-images for the generation this
     transaction will commit at (current + 2: the in-txn flip takes
     current + 1). *)
  Pager.reclaim t.pager ~upto:(pinned_floor t);
  Pager.set_retain_gen t.pager (t.gen + 2);
  let used0 = t.last.used in
  let head = Pager.begin_journal t.pager ~exempt:[ 0; 1 ] in
  (* Free snapshot for the in-txn superblock: the committed free list,
     plus the journal head itself when it recycled a committed-free page
     (after recovery its contents are garbage, so it must come back as
     free rather than leak). *)
  let free = Pager.free_pages t.pager in
  let free = if head < used0 then head :: free else free in
  let st =
    {
      commit = t.last.commit + 1;
      used = used0;
      journal = head;
      meta = t.last.meta;
      free_total = List.length free;
      free;
    }
  in
  write_slot t.pager st;
  Prt_obs.Metrics.tick m_commits;
  t.last <- st;
  t.in_txn <- true

let commit_txn t ~meta =
  if not t.in_txn then invalid_arg "Superblock.commit_txn: no transaction open";
  let jpages = Pager.end_journal t.pager in
  List.iter (fun id -> if not (Pager.is_free t.pager id) then Pager.free t.pager id) jpages;
  let free = Pager.free_pages t.pager in
  let st =
    {
      commit = t.last.commit + 1;
      used = Pager.num_pages t.pager;
      journal = -1;
      meta;
      free_total = List.length free;
      free;
    }
  in
  write_slot t.pager st;
  Prt_obs.Metrics.tick m_commits;
  (* The commit is durable; stop retention and park this transaction's
     frees under the new generation — pages freed here were part of
     every older tree, so they stay unallocatable until the last pin
     below [st.commit] drops.  Publish the generation under [pin_lock]
     (a concurrent [pin] gets either the old or the new (gen, meta)
     pair, never a mix), then promote whatever the pin floor allows. *)
  Pager.park_frees t.pager ~gen:st.commit;
  Pager.set_retain_gen t.pager (-1);
  Mutex.protect t.pin_lock (fun () ->
      t.gen <- st.commit;
      t.gen_meta <- Bytes.copy meta);
  Prt_obs.Flight.point "commit.publish" ~arg:st.commit;
  t.last <- st;
  t.in_txn <- false;
  Pager.reclaim t.pager ~upto:(pinned_floor t)
