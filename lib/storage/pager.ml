(* The simulated disk: a flat array of fixed-size pages addressed by page
   id, with every read and write counted.  This plays the role of the
   paper's physical disk — all reported "I/Os" in the experiments are
   page reads/writes observed here.

   Two backends are provided: an in-memory one (default for experiments,
   so benchmarks measure the algorithms and not the host filesystem) and
   a real-file one used by the CLI so indexes persist across runs.  Freed
   pages go on a free list and are handed out again by [alloc]; this is
   what keeps space bounded under the dynamic update algorithms.

   A third backend, [Faulty], wraps any pager with a {!Failpoint} policy
   and turns its verdicts into real device misbehaviour: transient
   [Io_error]s, torn writes that persist only a prefix of the new page,
   short reads that clobber only a prefix of the buffer.  The wrapper
   shares the inner pager's counters, so with an all-zero policy it is
   observationally identical to the pager it wraps.

   Format v4 integrity: every page written through the public [write]
   path is stamped with the {!Page} trailer (monotonic device LSN,
   format epoch, CRC-32C), and [read] on the file backend verifies the
   trailer, raising {!Corrupt_page} on mismatch.  The stamping/verifying
   public path is deliberately separate from the raw [phys_*] helpers:
   the fault wrapper's torn-write merge goes through the raw path, so a
   torn page is persisted with its (now wrong) old checksum intact —
   exactly how a real torn sector defeats its own CRC.

   Crash consistency support (used by {!Superblock}): [arm_crash]
   attaches a failpoint whose write budget is consulted before every
   physical page write persists; [free] can be deferred so pages freed
   mid-transaction are not recycled until the commit point; and a
   pre-image journal snapshots the old contents of any committed page
   before its first in-place overwrite, into a chained, checksummed
   directory that [recover_journal] replays after a crash. *)

exception Io_error of string
exception Corrupt_page of string

let () =
  Printexc.register_printer (function
    | Io_error msg -> Some ("Pager.Io_error: " ^ msg)
    | Corrupt_page msg -> Some ("Pager.Corrupt_page: " ^ msg)
    | _ -> None)

type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

type snapshot = { s_reads : int; s_writes : int; s_allocs : int }

(* Observability mirrors: the same events that bump [stats] also bump
   these registry counters (no-ops unless collection is on), which is
   what lets {!Prt_obs.Trace} spans attribute I/O to build/query phases.
   The pager's own [stats] are never derived from these — fault-free
   accounting stays bit-identical whether or not anyone is watching. *)
let m_reads = Prt_obs.Metrics.counter "pager.reads"
let m_writes = Prt_obs.Metrics.counter "pager.writes"
let m_allocs = Prt_obs.Metrics.counter "pager.allocs"
let m_frees = Prt_obs.Metrics.counter "pager.frees"
let m_corrupt = Prt_obs.Metrics.counter "pager.corrupt_pages"
let m_shared_reads = Prt_obs.Metrics.counter "pager.shared_reads"

type backend =
  | Memory of { mutable pages : bytes array; mutable used : int }
  | File of { fd : Unix.file_descr; mutable used : int }
  | Faulty of { inner : t; fp : Failpoint.t }

and t = {
  page_size : int;
  backend : backend;
  stats : stats;
  mutable free_list : int list;
  free_set : (int, unit) Hashtbl.t;
  mutable closed : bool;
  shared_lock : Mutex.t;  (* serializes [read_shared] on the file backend *)
  (* --- base-pager state below (unused on the Faulty wrapper; all
     operations recurse to the base first) --- *)
  mutable lsn : int;  (* monotonic stamp counter for written pages *)
  corrupt_reads : int Atomic.t;  (* reads that failed trailer verification;
                                    atomic: [read_shared] verifies on
                                    reader domains *)
  mutable crash : Failpoint.t option;  (* armed crash budget, if any *)
  mutable defer_frees : bool;
  mutable pending : int list;  (* frees awaiting promotion *)
  mutable journal : journal option;
  (* --- MVCC generation snapshots (see read_shared) --- *)
  mvcc_lock : Mutex.t;  (* guards versions + gc_frees, never held across I/O *)
  versions : (int, version list) Hashtbl.t;  (* per page, newest first *)
  retained : int Atomic.t;
      (* pages with a retained version: [Hashtbl.length versions], set
         under [mvcc_lock] at every change, read without it *)
  mutable retain_gen : int;  (* generation the running txn will commit; -1 = off *)
  mutable gc_frees : (int * int list) list;  (* commit generation -> parked frees *)
}

(* A retained pre-image: [v_img] was the committed content of its page
   for every generation < [v_gen_end] (the page's first overwrite by the
   transaction committing at [v_gen_end] retained it). *)
and version = { v_gen_end : int; v_img : bytes }

and journal = {
  j_base_used : int;  (* pages committed before the transaction *)
  j_committed_free : (int, unit) Hashtbl.t;  (* free set at txn start *)
  j_map : (int, int) Hashtbl.t;  (* original page -> pre-image copy *)
  j_own : (int, unit) Hashtbl.t;  (* directory + copy pages (never journaled) *)
  j_exempt : (int, unit) Hashtbl.t;  (* e.g. superblock pages *)
  j_new : (int, unit) Hashtbl.t;  (* pages allocated during the transaction *)
  mutable j_pages : int list;  (* everything to free at commit *)
  j_head : int;
  mutable j_tail : int;
  mutable j_tail_entries : (int * int) list;  (* newest first *)
}

let default_page_size = 4096

let check_page_size ctx page_size =
  if page_size <= Page.trailer_size then
    invalid_arg
      (Printf.sprintf "Pager.%s: page_size %d does not fit the %d-byte integrity trailer" ctx
         page_size Page.trailer_size)

let mk ~page_size ~backend ~stats ~free_set =
  {
    page_size;
    backend;
    stats;
    free_list = [];
    free_set;
    closed = false;
    shared_lock = Mutex.create ();
    lsn = 0;
    corrupt_reads = Atomic.make 0;
    crash = None;
    defer_frees = false;
    pending = [];
    journal = None;
    mvcc_lock = Mutex.create ();
    versions = Hashtbl.create 64;
    retained = Atomic.make 0;
    retain_gen = -1;
    gc_frees = [];
  }

let create_memory ?(page_size = default_page_size) () =
  check_page_size "create_memory" page_size;
  mk ~page_size
    ~backend:(Memory { pages = Array.make 64 Bytes.empty; used = 0 })
    ~stats:{ reads = 0; writes = 0; allocs = 0 }
    ~free_set:(Hashtbl.create 16)

let create_file ?(page_size = default_page_size) path =
  check_page_size "create_file" page_size;
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  mk ~page_size ~backend:(File { fd; used = 0 })
    ~stats:{ reads = 0; writes = 0; allocs = 0 }
    ~free_set:(Hashtbl.create 16)

let open_file ?(page_size = default_page_size) ?(partial_tail = `Reject) path =
  check_page_size "open_file" page_size;
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  (* Anything that fails between here and a fully constructed pager must
     not leak the descriptor. *)
  let used =
    match
      let bytes = (Unix.fstat fd).Unix.st_size in
      if bytes mod page_size = 0 then bytes / page_size
      else
        match partial_tail with
        | `Reject ->
            invalid_arg
              (Printf.sprintf
                 "Pager.open_file: %s size %d is not a multiple of the page size %d" path bytes
                 page_size)
        | `Truncate ->
            (* A trailing partial page is a torn final write: drop it so
               the rest of the device is addressable (fsck reports the
               number of bytes removed). *)
            let used = bytes / page_size in
            Unix.ftruncate fd (used * page_size);
            used
    with
    | used -> used
    | exception e ->
        Unix.close fd;
        raise e
  in
  mk ~page_size ~backend:(File { fd; used })
    ~stats:{ reads = 0; writes = 0; allocs = 0 }
    ~free_set:(Hashtbl.create 16)

let rec base t = match t.backend with Faulty f -> base f.inner | Memory _ | File _ -> t

(* The wrapper aliases the inner pager's [stats] record, so I/O
   accounting is identical whether callers observe the wrapper or the
   wrapped pager. *)
let wrap_faulty inner fp =
  if Failpoint.crash_enabled fp then (base inner).crash <- Some fp;
  mk ~page_size:inner.page_size ~backend:(Faulty { inner; fp }) ~stats:inner.stats
    ~free_set:(Hashtbl.create 1)

let arm_crash t fp = (base t).crash <- Some fp

let failpoint t = match t.backend with Faulty f -> Some f.fp | Memory _ | File _ -> None

let page_size t = t.page_size

let payload_size t = Page.payload_size t.page_size

let rec num_pages t =
  match t.backend with Memory m -> m.used | File f -> f.used | Faulty f -> num_pages f.inner

let corrupt_reads t = Atomic.get (base t).corrupt_reads

let check_open t op = if t.closed then invalid_arg ("Pager." ^ op ^ ": pager is closed")

let check_id t op id =
  if id < 0 || id >= num_pages t then
    invalid_arg (Printf.sprintf "Pager.%s: page %d out of range (0..%d)" op id (num_pages t - 1))

(* --- raw physical page I/O on a base pager: counted, but no trailer
   stamping or verification.  [phys_write] is the single choke point at
   which an armed crash budget can kill the "process". --- *)

(* All file-descriptor I/O (the lseek + read/write pairs) runs under
   [shared_lock]: concurrent snapshot readers share the fd offset with
   the writing domain, so an unserialized seek would land a read at the
   writer's offset (or vice versa).  The lock is only ever held for one
   page transfer and never nested. *)
let locked_file_read t fd id buf =
  Mutex.protect t.shared_lock (fun () ->
      ignore (Unix.lseek fd (id * t.page_size) Unix.SEEK_SET);
      let rec fill off =
        if off < t.page_size then begin
          let n = Unix.read fd buf off (t.page_size - off) in
          if n = 0 then failwith "Pager.read: unexpected end of file";
          fill (off + n)
        end
      in
      fill 0)

let locked_file_write t fd id buf =
  Mutex.protect t.shared_lock (fun () ->
      ignore (Unix.lseek fd (id * t.page_size) Unix.SEEK_SET);
      let n = Unix.write fd buf 0 t.page_size in
      if n <> t.page_size then failwith "Pager.write: short write")

let phys_read_into t id buf =
  match t.backend with
  | Faulty _ -> assert false
  | Memory m ->
      t.stats.reads <- t.stats.reads + 1;
      Prt_obs.Metrics.tick m_reads;
      Bytes.blit m.pages.(id) 0 buf 0 t.page_size
  | File f ->
      t.stats.reads <- t.stats.reads + 1;
      Prt_obs.Metrics.tick m_reads;
      locked_file_read t f.fd id buf

let phys_write t id buf =
  (match t.crash with Some fp -> Failpoint.on_phys_write fp | None -> ());
  match t.backend with
  | Faulty _ -> assert false
  | Memory m ->
      t.stats.writes <- t.stats.writes + 1;
      Prt_obs.Metrics.tick m_writes;
      (* Install a fresh buffer instead of blitting in place: a snapshot
         reader holding the previous buffer (from [read_shared]) keeps a
         consistent image — the array-slot store is atomic in OCaml 5,
         so a concurrent reader sees either the old page or the new one,
         never a torn mix. *)
      m.pages.(id) <- Bytes.copy buf
  | File f ->
      t.stats.writes <- t.stats.writes + 1;
      Prt_obs.Metrics.tick m_writes;
      locked_file_write t f.fd id buf

(* Zeros to write a fresh page from: one buffer shared by every pager
   and never written to, grown only for a larger page size.  A page
   allocation thus allocates no page-sized buffer (4 KB would go
   straight into the major heap). *)
let zeros = Atomic.make Bytes.empty

let zeros_for size =
  let z = Atomic.get zeros in
  if Bytes.length z >= size then z
  else begin
    let z = Bytes.make size '\000' in
    Atomic.set zeros z;
    z
  end

(* Uncounted zero-fill, used when recycling a freed page and when
   extending the file.  Same copy-on-write discipline as [phys_write]:
   the Memory backend installs a fresh buffer rather than clearing the
   one a shared reader may still hold. *)
let zero_page t id =
  match t.backend with
  | Faulty _ -> assert false
  | Memory m -> m.pages.(id) <- Bytes.make t.page_size '\000'
  | File f -> locked_file_write t f.fd id (zeros_for t.page_size)

let alloc_base t =
  t.stats.allocs <- t.stats.allocs + 1;
  Prt_obs.Metrics.tick m_allocs;
  let id =
    match t.free_list with
    | id :: rest ->
        t.free_list <- rest;
        Hashtbl.remove t.free_set id;
        (* Zero-fill on recycle: scrub and salvage must never mistake a
           freed node's stale bytes for live data. *)
        zero_page t id;
        id
    | [] -> (
        match t.backend with
        | Faulty _ -> assert false
        | Memory m ->
            if m.used = Array.length m.pages then begin
              let pages = Array.make (2 * Array.length m.pages) Bytes.empty in
              Array.blit m.pages 0 pages 0 m.used;
              m.pages <- pages
            end;
            m.pages.(m.used) <- Bytes.make t.page_size '\000';
            m.used <- m.used + 1;
            m.used - 1
        | File f ->
            (* Extend the file by one zero page. *)
            let id = f.used in
            f.used <- f.used + 1;
            zero_page t id;
            id)
  in
  (match t.journal with Some j -> Hashtbl.replace j.j_new id () | None -> ());
  id

let rec alloc t =
  check_open t "alloc";
  match t.backend with
  | Faulty { inner; fp } ->
      if Failpoint.on_alloc fp then
        raise (Io_error "alloc: injected allocation failure (out of space)");
      alloc inner
  | Memory _ | File _ -> alloc_base t

let rec free t id =
  check_open t "free";
  match t.backend with
  | Faulty { inner; _ } -> free inner id
  | Memory _ | File _ ->
      check_id t "free" id;
      if Hashtbl.mem t.free_set id then invalid_arg "Pager.free: double free";
      Prt_obs.Metrics.tick m_frees;
      Hashtbl.replace t.free_set id ();
      if t.defer_frees then t.pending <- id :: t.pending
      else t.free_list <- id :: t.free_list

let rec is_free t id =
  match t.backend with
  | Faulty { inner; _ } -> is_free inner id
  | Memory _ | File _ -> Hashtbl.mem t.free_set id

let parked_frees_locked b = List.concat_map snd b.gc_frees

(* All free pages — pending, generation-parked, and reusable alike: the
   free-list snapshot the superblock persists.  On reopen no pin can
   exist, so parked pages are plainly free. *)
let free_pages t =
  let b = base t in
  let parked = Mutex.protect b.mvcc_lock (fun () -> parked_frees_locked b) in
  b.pending @ parked @ b.free_list

let promote_frees t =
  let b = base t in
  b.free_list <- b.pending @ b.free_list;
  b.pending <- []

let set_defer_frees t on =
  let b = base t in
  if not on then promote_frees b;
  b.defer_frees <- on

(* --- MVCC: generation-scoped deferred frees and version GC ---

   [park_frees] moves a committed transaction's deferred frees onto a
   per-generation parking list: pages freed by the commit at generation
   [gen] were part of every tree older than [gen], so they must not be
   recycled (and zero-filled) while any reader still pins an older
   generation.  [reclaim ~upto:floor] — called only from the writing
   domain, because [free_list] is its unshared state — promotes parked
   groups with generation <= floor and drops superseded versions.
   [collect] is the reader-side half: it only drops versions, so a
   reader releasing the last pin of an old generation never touches the
   writer's free list (the next begin/commit picks the frees up). *)

let set_retain_gen t gen = (base t).retain_gen <- gen

let park_frees t ~gen =
  let b = base t in
  if b.pending <> [] then begin
    let ids = b.pending in
    b.pending <- [];
    Mutex.protect b.mvcc_lock (fun () -> b.gc_frees <- (gen, ids) :: b.gc_frees)
  end

(* Every change to [versions] ends here, under [mvcc_lock]. *)
let note_versions_locked b = Atomic.set b.retained (Hashtbl.length b.versions)

let drop_versions_locked b ~upto =
  let stale =
    Hashtbl.fold
      (fun id vs acc ->
        if List.exists (fun v -> v.v_gen_end <= upto) vs then (id, vs) :: acc else acc)
      b.versions []
  in
  List.iter
    (fun (id, vs) ->
      match List.filter (fun v -> v.v_gen_end > upto) vs with
      | [] -> Hashtbl.remove b.versions id
      | vs' -> Hashtbl.replace b.versions id vs')
    stale;
  note_versions_locked b

let collect t ~upto =
  let b = base t in
  Mutex.protect b.mvcc_lock (fun () -> drop_versions_locked b ~upto)

let reclaim t ~upto =
  let b = base t in
  check_open b "reclaim";
  let promoted =
    Mutex.protect b.mvcc_lock (fun () ->
        drop_versions_locked b ~upto;
        let ready, parked = List.partition (fun (g, _) -> g <= upto) b.gc_frees in
        b.gc_frees <- parked;
        List.concat_map snd ready)
  in
  b.free_list <- promoted @ b.free_list

type mvcc_stats = { live_versions : int; parked_pages : int }

let mvcc_stats t =
  let b = base t in
  Mutex.protect b.mvcc_lock (fun () ->
      {
        live_versions = Hashtbl.fold (fun _ vs n -> n + List.length vs) b.versions 0;
        parked_pages = List.length (parked_frees_locked b);
      })

let set_free_list t ids =
  let b = base t in
  let n = num_pages b in
  let ids = List.filter (fun id -> id >= 0 && id < n) ids in
  Hashtbl.reset b.free_set;
  List.iter (fun id -> Hashtbl.replace b.free_set id ()) ids;
  b.free_list <- ids;
  b.pending <- [];
  Mutex.protect b.mvcc_lock (fun () ->
      b.gc_frees <- [];
      Hashtbl.reset b.versions;
      note_versions_locked b)

let truncate t ~used =
  let b = base t in
  check_open b "truncate";
  if used < 0 || used > num_pages b then invalid_arg "Pager.truncate: bad page count";
  (match b.backend with
  | Faulty _ -> assert false
  | Memory m -> m.used <- used
  | File f ->
      Unix.ftruncate f.fd (used * b.page_size);
      f.used <- used);
  let keep id = id < used in
  b.free_list <- List.filter keep b.free_list;
  b.pending <- List.filter keep b.pending;
  Mutex.protect b.mvcc_lock (fun () ->
      b.gc_frees <-
        List.filter_map
          (fun (g, ids) ->
            match List.filter keep ids with [] -> None | ids -> Some (g, ids))
          b.gc_frees;
      Hashtbl.iter
        (fun id _ -> if not (keep id) then Hashtbl.remove b.versions id)
        (Hashtbl.copy b.versions);
      note_versions_locked b);
  Hashtbl.iter (fun id () -> if not (keep id) then Hashtbl.remove b.free_set id) (Hashtbl.copy b.free_set)

(* Fraction -> byte prefix that survives a torn write / short read:
   always at least one byte, never the full page. *)
let partial_len page_size frac =
  let k = int_of_float (frac *. float_of_int page_size) in
  max 1 (min (page_size - 1) k)

let stamp_page b buf =
  b.lsn <- b.lsn + 1;
  Page.stamp buf ~lsn:b.lsn

let verify_read b id buf =
  match b.backend with
  | Memory _ | Faulty _ -> ()
  | File _ -> (
      match Page.check buf with
      | Page.Fresh | Page.Valid _ -> ()
      | Page.Torn | Page.Stale_epoch _ as bad ->
          Atomic.incr b.corrupt_reads;
          Prt_obs.Metrics.tick m_corrupt;
          (* Postmortem: mark the failure on this domain's flight ring
             (and dump all rings, when a dump path is configured). *)
          Prt_obs.Flight.failure "pager.corrupt_page" ~arg:id
            ~note:(Fmt.str "%a" Page.pp_integrity bad);
          raise
            (Corrupt_page
               (Fmt.str "page %d failed trailer verification: %a" id Page.pp_integrity bad)))

let rec read_into t id buf =
  check_open t "read";
  check_id t "read" id;
  if Bytes.length buf <> t.page_size then invalid_arg "Pager.read_into: buffer size mismatch";
  match t.backend with
  | Faulty { inner; fp } -> (
      match Failpoint.on_read fp with
      | Failpoint.Ok -> read_into inner id buf
      | Failpoint.Error ->
          raise (Io_error (Printf.sprintf "read: injected transient error on page %d" id))
      | Failpoint.Partial frac ->
          (* Short read: only a prefix of the buffer is valid; poison the
             tail so nothing can silently use it. *)
          read_into inner id buf;
          let keep = partial_len t.page_size frac in
          Bytes.fill buf keep (t.page_size - keep) '\xAA';
          raise
            (Io_error
               (Printf.sprintf "read: injected short read (%d of %d bytes) on page %d" keep
                  t.page_size id)))
  | Memory _ | File _ ->
      phys_read_into t id buf;
      verify_read t id buf

let read t id =
  let buf = Bytes.create t.page_size in
  read_into t id buf;
  buf

(* Unverified read, for scrub/salvage tools that classify damage rather
   than trip over it.  Bypasses fault injection: recovery tooling is
   modelled as running against a quiesced device. *)
let read_raw t id =
  let b = base t in
  check_open b "read_raw";
  check_id b "read_raw" id;
  let buf = Bytes.create b.page_size in
  phys_read_into b id buf;
  buf

(* Domain-safe read-only page fetch for the query serving layer
   ({!Prt_rtree.Qexec}).  On the in-memory backend this returns the live
   page buffer itself — a true zero-copy read, safe because an array
   read is atomic in OCaml 5 and the serving contract forbids concurrent
   mutation of the device.  On the file backend the shared fd offset
   forces serialization: the read runs under a per-pager mutex and
   returns a fresh verified buffer.  Reads through this path bypass
   fault injection and the plain per-pager stats fields (those would
   race); they are counted in the domain-striped registry as
   [pager.shared_reads] instead. *)
(* The retained image serving generation [gen], if the page was
   overwritten by any transaction committing after it.  The per-page
   list is newest-first (descending [v_gen_end]); the right image is the
   {e oldest} retained version whose overwrite postdates [gen]. *)
let find_version b id ~gen =
  match Hashtbl.find_opt b.versions id with
  | None -> None
  | Some vs ->
      List.fold_left (fun acc v -> if v.v_gen_end > gen then Some v.v_img else acc) None vs

(* [find_version] from a reader.  A zero [retained] count answers the
   miss without the lock.  That is safe because a writer retains a page
   (and raises the count, under the lock) before its overwrite lands:
   a reader whose bytes could have come from an overwrite sees the count
   raised, as it would have seen the table entry under the lock, and
   versions are dropped only once no pin can need them. *)
let lookup_version b id ~gen =
  if Atomic.get b.retained = 0 then None
  else Mutex.protect b.mvcc_lock (fun () -> find_version b id ~gen)

let read_shared ?(gen = 0) t id =
  let b = base t in
  check_open b "read_shared";
  check_id b "read_shared" id;
  Prt_obs.Metrics.tick m_shared_reads;
  let live () =
    match b.backend with
    | Faulty _ -> assert false
    | Memory m -> m.pages.(id)
    | File f ->
        let buf = Bytes.create b.page_size in
        locked_file_read b f.fd id buf;
        verify_read b id buf;
        buf
  in
  if gen <= 0 then live ()
  else begin
    (* Snapshot protocol: read the live page FIRST, then consult the
       version store.  Retention always precedes the physical overwrite,
       so a store miss proves the live read predates any overwrite of
       this page by a newer generation — the race where the writer lands
       between the two steps resolves to the retained image. *)
    let live_page = match live () with buf -> Ok buf | exception e -> Error e in
    match lookup_version b id ~gen with
    | Some img ->
        (* Version images were captured raw; serve-time verification
           mirrors the live read's contract on the file backend. *)
        verify_read b id img;
        img
    | None -> ( match live_page with Ok buf -> buf | Error e -> raise e)
  end

(* Version-store probe for the mmap read path: the retained image
   serving [gen], if any, without touching the live page.  The mapped
   snapshot protocol probes before scanning a mapped page and re-checks
   after — a miss on the post-scan probe proves the scan predated any
   overwrite, because retention always precedes the physical write.
   The miss is lock-free while nothing is retained (see
   [lookup_version]), so a pinned descent over a quiet store takes no
   lock and allocates nothing per page. *)
let version_probe t id ~gen =
  let b = base t in
  check_open b "version_probe";
  check_id b "version_probe" id;
  if gen <= 0 then None else lookup_version b id ~gen

(* --- pre-image journal ---

   Directory page payload layout (chained single pages):
     [0..3]   magic "PRJD"
     [4..7]   entry count on this page
     [8..11]  next directory page id, or -1
     [12..]   (original page id, copy page id) int32 pairs

   The first overwrite of each committed page during a transaction first
   copies its current image to a freshly allocated page and records the
   pair in the directory *before* the overwrite lands, so recovery can
   always restore the pre-transaction image. *)

let dir_magic = 0x50524A44 (* "PRJD" *)

let dir_capacity t = (Page.payload_size t.page_size - 12) / 8

let write_dir b ~write ~dir ~next entries_rev =
  let n = List.length entries_rev in
  let page = Page.create b.page_size in
  Page.set_i32 page 0 dir_magic;
  Page.set_i32 page 4 n;
  Page.set_i32 page 8 next;
  List.iteri
    (fun k (orig, copy) ->
      let i = n - 1 - k in
      Page.set_i32 page (12 + (8 * i)) orig;
      Page.set_i32 page (12 + (8 * i) + 4) copy)
    entries_rev;
  write b dir page

let journal_eligible j id =
  id < j.j_base_used
  && (not (Hashtbl.mem j.j_committed_free id))
  && (not (Hashtbl.mem j.j_map id))
  && (not (Hashtbl.mem j.j_own id))
  && not (Hashtbl.mem j.j_exempt id)

let rec write t id buf =
  check_open t "write";
  check_id t "write" id;
  if Bytes.length buf <> t.page_size then invalid_arg "Pager.write: buffer size mismatch";
  match t.backend with
  | Faulty { inner; fp } -> (
      match Failpoint.on_write fp with
      | Failpoint.Ok -> write inner id buf
      | Failpoint.Error ->
          raise (Io_error (Printf.sprintf "write: injected transient error on page %d" id))
      | Failpoint.Partial frac ->
          (* Torn write: the device persisted only a prefix of the new
             page; the tail keeps its previous contents.  The merge goes
             through the raw physical path so the torn page is NOT
             re-stamped — its checksum no longer matches, exactly as a
             real torn sector defeats its own CRC. *)
          let b = base inner in
          stamp_page b buf;
          let keep = partial_len t.page_size frac in
          let cur = Bytes.create t.page_size in
          phys_read_into b id cur;
          Bytes.blit buf 0 cur 0 keep;
          phys_write b id cur;
          raise
            (Io_error
               (Printf.sprintf "write: injected torn write (%d of %d bytes) on page %d" keep
                  t.page_size id)))
  | Memory _ | File _ ->
      (match t.journal with
      | Some j when journal_eligible j id -> journal_copy t j id
      | Some _ | None -> ());
      stamp_page t buf;
      phys_write t id buf

(* MVCC retention: the first overwrite of a committed page during a
   transaction parks its pre-image in the version store, tagged with the
   generation the transaction will commit, {e before} the overwrite
   lands.  [journal_copy] is exactly that first-overwrite point (the
   journal-eligibility test is the same question), so retention rides
   the pre-image read it already performs. *)
and retain_version b id img =
  if b.retain_gen >= 0 then begin
    let copy = Bytes.copy img in
    Mutex.protect b.mvcc_lock (fun () ->
        match Hashtbl.find_opt b.versions id with
        | Some (v :: _) when v.v_gen_end >= b.retain_gen -> ()
        | vs ->
            Hashtbl.replace b.versions id
              ({ v_gen_end = b.retain_gen; v_img = copy } :: Option.value vs ~default:[]);
            note_versions_locked b)
  end

and journal_copy b j id =
  let pre = Bytes.create b.page_size in
  phys_read_into b id pre;
  (* Retain before [write] below stamps [pre]'s trailer for the copy
     page, and before the caller's overwrite of [id] can land. *)
  retain_version b id pre;
  let cid = alloc_base b in
  Hashtbl.replace j.j_own cid ();
  j.j_pages <- cid :: j.j_pages;
  Hashtbl.replace j.j_map id cid;
  (* Copy first, then publish it in the directory: a crash between the
     two leaves the entry unrecorded, but the original page has not been
     overwritten yet, so recovery without it is still exact. *)
  write b cid pre;
  if List.length j.j_tail_entries >= dir_capacity b then begin
    let d = alloc_base b in
    Hashtbl.replace j.j_own d ();
    j.j_pages <- d :: j.j_pages;
    (* New tail (already holding the entry) becomes reachable only once
       the old tail's next pointer lands. *)
    write_dir b ~write ~dir:d ~next:(-1) [ (id, cid) ];
    write_dir b ~write ~dir:j.j_tail ~next:d j.j_tail_entries;
    j.j_tail <- d;
    j.j_tail_entries <- [ (id, cid) ]
  end
  else begin
    j.j_tail_entries <- (id, cid) :: j.j_tail_entries;
    write_dir b ~write ~dir:j.j_tail ~next:(-1) j.j_tail_entries
  end

let begin_journal t ~exempt =
  let b = base t in
  check_open b "begin_journal";
  if b.journal <> None then invalid_arg "Pager.begin_journal: journal already active";
  if b.pending <> [] then invalid_arg "Pager.begin_journal: unpromoted deferred frees";
  let j_base_used = num_pages b in
  let j_committed_free = Hashtbl.copy b.free_set in
  let head = alloc_base b in
  let j =
    {
      j_base_used;
      j_committed_free;
      j_map = Hashtbl.create 32;
      j_own = Hashtbl.create 8;
      j_exempt = Hashtbl.create 4;
      j_new = Hashtbl.create 16;
      j_pages = [ head ];
      j_head = head;
      j_tail = head;
      j_tail_entries = [];
    }
  in
  List.iter (fun id -> Hashtbl.replace j.j_exempt id ()) exempt;
  Hashtbl.replace j.j_own head ();
  b.journal <- Some j;
  write_dir b ~write ~dir:head ~next:(-1) [];
  head

let journal_head t = match (base t).journal with Some j -> Some j.j_head | None -> None

(* The set of pages this transaction will have modified if it commits:
   committed pages it overwrote (journalled) plus pages it allocated,
   minus the journal's own bookkeeping pages, exempt pages (superblock
   slots), and anything freed again before commit.  This is what the
   shadow-copy layer snapshots *post-image* right before commit, so the
   online scrub can later repair exactly the pages whose committed
   content is known. *)
let txn_modified_pages t =
  let b = base t in
  match b.journal with
  | None -> []
  | Some j ->
      let acc = Hashtbl.create 64 in
      Hashtbl.iter (fun id _ -> Hashtbl.replace acc id ()) j.j_map;
      Hashtbl.iter (fun id () -> Hashtbl.replace acc id ()) j.j_new;
      Hashtbl.fold
        (fun id () out ->
          if Hashtbl.mem j.j_own id || Hashtbl.mem j.j_exempt id || Hashtbl.mem b.free_set id
          then out
          else id :: out)
        acc []
      |> List.sort Int.compare

let end_journal t =
  let b = base t in
  match b.journal with
  | None -> invalid_arg "Pager.end_journal: no journal active"
  | Some j ->
      b.journal <- None;
      j.j_pages

let recover_journal t ~head =
  let b = base t in
  check_open b "recover_journal";
  if b.journal <> None then invalid_arg "Pager.recover_journal: journal active";
  let restored = ref 0 in
  let rec walk dir =
    if dir >= 0 && dir < num_pages b then begin
      let page = read b dir in
      if Page.get_i32 page 0 <> dir_magic then
        raise (Corrupt_page (Printf.sprintf "page %d: bad journal directory magic" dir));
      let n = Page.get_i32 page 4 in
      let next = Page.get_i32 page 8 in
      if n < 0 || n > dir_capacity b then
        raise (Corrupt_page (Printf.sprintf "page %d: bad journal entry count %d" dir n));
      for i = 0 to n - 1 do
        let orig = Page.get_i32 page (12 + (8 * i)) in
        let copy = Page.get_i32 page (12 + (8 * i) + 4) in
        if orig >= 0 && orig < num_pages b && copy >= 0 && copy < num_pages b then begin
          let img = read b copy in
          write b orig img;
          incr restored
        end
      done;
      walk next
    end
  in
  walk head;
  !restored

let stats t = t.stats

let snapshot t =
  { s_reads = t.stats.reads; s_writes = t.stats.writes; s_allocs = t.stats.allocs }

let diff ~before ~after =
  {
    s_reads = after.s_reads - before.s_reads;
    s_writes = after.s_writes - before.s_writes;
    s_allocs = after.s_allocs - before.s_allocs;
  }

let total_io snap = snap.s_reads + snap.s_writes

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.allocs <- 0

let rec close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backend with Memory _ -> () | File f -> Unix.close f.fd | Faulty f -> close f.inner
  end

let is_closed t = t.closed

let pp_snapshot ppf s =
  Fmt.pf ppf "reads=%d writes=%d allocs=%d io=%d" s.s_reads s.s_writes s.s_allocs (total_io s)
