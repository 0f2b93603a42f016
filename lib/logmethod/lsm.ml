(* The persistent, crash-safe logarithmic method: LSM-style ingestion
   over on-disk PR-tree components.  See lsm.mli for the directory
   layout and the crash/degradation contracts.

   Concurrency in one paragraph: a single mutex guards the mutable
   state (buffer, sealed buffer, tombstones, component list, WAL
   handle, counters).  Everything that reads component *pages* does so
   through the snapshot path (Rtree.query ~snapshot -> the mapping or
   Pager.read_shared), which never touches the single-domain buffer
   pool — so reader domains, the merge domain and the insert path
   coexist without sharing pool state.  A published component is never
   written again, so its view (generation, root, height) is taken once,
   when it is opened or built, and no read pins it.  Components retired
   by a merge commit are unlinked immediately (open descriptors keep
   them readable) but their handles are only closed once no query that
   might have captured them is still in flight.

   Crash fidelity: an injected Io_error is a transient device fault —
   the process survives, so failure paths may clean up after themselves
   (truncate a torn manifest, unlink a half-built component) before the
   retry.  Simulated_crash means the process is dead at that kill
   point: nothing may touch the disk afterwards, the handle is poisoned,
   and the state left behind is exactly what the next open must
   recover from. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager
module Failpoint = Prt_storage.Failpoint
module Fsops = Prt_storage.Fsops
module Wal = Prt_storage.Wal
module Manifest = Prt_storage.Manifest
module Superblock = Prt_storage.Superblock
module Retry = Prt_storage.Retry
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Qexec = Prt_rtree.Qexec
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Pseudo = Prt_prtree.Pseudo
module Metrics = Prt_obs.Metrics
module Flight = Prt_obs.Flight
module Ids = Set.Make (Int)

type wal_sync = [ `Always | `Never ]

(* --- ingest.* telemetry (domain-striped; no-ops unless collecting) --- *)

let m_inserts = Metrics.counter "ingest.inserts"
let m_deletes = Metrics.counter "ingest.deletes"
let m_wal_bytes = Metrics.counter "ingest.wal_bytes"
let m_absorbs = Metrics.counter "ingest.absorbs"
let m_merges = Metrics.counter "ingest.merges"
let m_merge_aborts = Metrics.counter "ingest.merge_aborts"
let m_merge_entries = Metrics.counter "ingest.merge_entries"
let m_replayed = Metrics.counter "ingest.replayed"
let m_orphans = Metrics.counter "ingest.orphans_reclaimed"
let m_tombstones = Metrics.counter "ingest.tombstones"

(* --- the packed in-memory buffer ---

   The active and the sealed buffer hold their entries in columns: the
   four coordinates in [Float.Array]s, the ids in an int array, dense in
   slots [0, len), with an id -> slot table.  A removal moves the last
   slot into the hole.  A window scan runs [Rect.intersects]'
   comparisons inline on the columns and boxes an [Entry.t] only for a
   hit, so a scan that finds nothing allocates nothing. *)

module Packed = struct
  module Slots = Hashtbl.Make (Int)

  type t = {
    mutable xmin : Float.Array.t;
    mutable ymin : Float.Array.t;
    mutable xmax : Float.Array.t;
    mutable ymax : Float.Array.t;
    mutable ids : int array;
    mutable len : int;
    slots : int Slots.t;  (* id -> slot *)
  }

  let create capacity =
    let cap = max 16 capacity in
    {
      xmin = Float.Array.create cap;
      ymin = Float.Array.create cap;
      xmax = Float.Array.create cap;
      ymax = Float.Array.create cap;
      ids = Array.make cap 0;
      len = 0;
      slots = Slots.create cap;
    }

  let length b = b.len
  let mem b id = Slots.mem b.slots id

  let get b i =
    Entry.make
      (Rect.make ~xmin:(Float.Array.get b.xmin i) ~ymin:(Float.Array.get b.ymin i)
         ~xmax:(Float.Array.get b.xmax i) ~ymax:(Float.Array.get b.ymax i))
      b.ids.(i)

  let find_opt b id = Option.map (get b) (Slots.find_opt b.slots id)

  let set b i (e : Entry.t) =
    let r = e.Entry.rect in
    Float.Array.set b.xmin i r.Rect.xmin;
    Float.Array.set b.ymin i r.Rect.ymin;
    Float.Array.set b.xmax i r.Rect.xmax;
    Float.Array.set b.ymax i r.Rect.ymax;
    b.ids.(i) <- e.Entry.id

  let grow b =
    let cap = 2 * Array.length b.ids in
    let column a =
      let a' = Float.Array.create cap in
      Float.Array.blit a 0 a' 0 b.len;
      a'
    in
    b.xmin <- column b.xmin;
    b.ymin <- column b.ymin;
    b.xmax <- column b.xmax;
    b.ymax <- column b.ymax;
    let ids = Array.make cap 0 in
    Array.blit b.ids 0 ids 0 b.len;
    b.ids <- ids

  (* Add [e], or overwrite the entry buffered under its id. *)
  let replace b e =
    match Slots.find b.slots e.Entry.id with
    | i -> set b i e
    | exception Not_found ->
        if b.len = Array.length b.ids then grow b;
        set b b.len e;
        Slots.add b.slots e.Entry.id b.len;
        b.len <- b.len + 1

  let remove b id =
    match Slots.find b.slots id with
    | exception Not_found -> ()
    | i ->
        let last = b.len - 1 in
        if i < last then begin
          Float.Array.set b.xmin i (Float.Array.get b.xmin last);
          Float.Array.set b.ymin i (Float.Array.get b.ymin last);
          Float.Array.set b.xmax i (Float.Array.get b.xmax last);
          Float.Array.set b.ymax i (Float.Array.get b.ymax last);
          b.ids.(i) <- b.ids.(last);
          Slots.replace b.slots b.ids.(i) i
        end;
        Slots.remove b.slots id;
        b.len <- last

  let iter f b =
    for i = 0 to b.len - 1 do
      f (get b i)
    done

  let copy b =
    {
      xmin = Float.Array.copy b.xmin;
      ymin = Float.Array.copy b.ymin;
      xmax = Float.Array.copy b.xmax;
      ymax = Float.Array.copy b.ymax;
      ids = Array.copy b.ids;
      len = b.len;
      slots = Slots.copy b.slots;
    }

  (* The entries whose rectangle meets [w] (closed intervals), consed
     onto [acc]. *)
  let scan b (w : Rect.t) acc =
    let acc = ref acc in
    for i = 0 to b.len - 1 do
      if
        Float.Array.unsafe_get b.xmin i <= w.Rect.xmax
        && w.Rect.xmin <= Float.Array.unsafe_get b.xmax i
        && Float.Array.unsafe_get b.ymin i <= w.Rect.ymax
        && w.Rect.ymin <= Float.Array.unsafe_get b.ymax i
      then acc := get b i :: !acc
    done;
    !acc
end

(* --- components --- *)

(* A live component's file and its tree as published: never written
   again, so the view taken when it was opened or built serves every
   read without a pin. *)
type comp_state =
  | Live of Index_file.t * Rtree.snapshot_view
  | Failed of string  (* open/read failed: degrades only its own slice *)

type comp = {
  c_level : int;
  c_seq : int;
  c_file : string;  (* basename *)
  c_count : int;
  mutable c_state : comp_state;
  mutable c_exec : Qexec.t option;  (* lazy batched executor *)
}

type t = {
  dir : string;
  buffer_capacity : int;
  page_size : int;
  wal_sync : wal_sync;
  fsops : Fsops.t;
  retry : Retry.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable buffer : Packed.t;
  mutable sealed : Packed.t option;
  mutable tombstones : Ids.t;
      (* immutable: a query snapshots it by reading the field, no copy *)
  mutable comps : comp list;  (* sorted by c_level ascending *)
  mutable wal : Wal.t;
  mutable wal_seq : int;
  mutable old_segments : (int * string * int) list;  (* seq, path, bytes *)
  mutable next_seq : int;
  mutable manifest_seq : int;
  mutable last_merge : string;
  mutable merging : bool;
  mutable merge_wanted : bool;  (* a seal not yet merged or aborted *)
  mutable merges : int;
  mutable merge_aborts : int;
  replayed : int;
  orphans_reclaimed : int;
  mutable bytes_acked : int;
  mutable wal_bytes_written : int;
  mutable comp_pages_written : int;
  mutable retired : Index_file.t list;
  mutable active_queries : int;
  mutable closed : bool;
  mutable fatal : exn option;
  background : bool;
  mutable worker : unit Domain.t option;
}

let dir t = t.dir

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let check_usable t =
  if t.closed then invalid_arg "Lsm: handle closed";
  match t.fatal with Some e -> raise e | None -> ()

let comp_path t c = Filename.concat t.dir c.c_file
let comp_file seq = Printf.sprintf "c%06d.idx" seq
let wal_file seq = Printf.sprintf "wal-%06d.log" seq

let wal_seq_of_filename name =
  if String.length name = 14 && String.sub name 0 4 = "wal-"
     && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 6)
  else None

let is_comp_filename name =
  String.length name = 11
  && name.[0] = 'c'
  && Filename.check_suffix name ".idx"
  && int_of_string_opt (String.sub name 1 6) <> None

let cap t j = t.buffer_capacity * (1 lsl j)

(* --- WAL records: tag (u8) + the 36-byte entry --- *)

let record_size = 1 + Entry.size

let encode_record tag e =
  let b = Bytes.create record_size in
  Bytes.set_uint8 b 0 tag;
  Entry.write b 1 e;
  b

let decode_record b =
  if Bytes.length b <> record_size then None
  else
    match Bytes.get_uint8 b 0 with
    | (0 | 1) as tag -> Some (tag, Entry.read b 1)
    | _ -> None

(* --- opening --- *)

(* A component that fails to open degrades only its own slice — except
   one of another on-disk format: then every component is, and the
   store is refused by name rather than opened with nothing readable. *)
let open_component ~page_size ~dir (mc : Manifest.component) =
  let path = Filename.concat dir mc.Manifest.mc_file in
  let state =
    match Index_file.open_ ~page_size path with
    | idx -> Live (idx, Index_file.with_snapshot idx Fun.id)
    | exception (Superblock.Unsupported_format _ as e) -> raise e
    | exception e ->
        Flight.failure ~note:mc.Manifest.mc_file "ingest.component_failed";
        Failed (Printexc.to_string e)
  in
  {
    c_level = mc.Manifest.mc_level;
    c_seq = mc.Manifest.mc_seq;
    c_file = mc.Manifest.mc_file;
    c_count = mc.Manifest.mc_count;
    c_state = state;
    c_exec = None;
  }

(* Apply one replayed WAL record.  Inserts land in the buffer; a delete
   cancels a buffered insert or is deferred — whether it tombstones a
   stored entry or targets one a later merge already resolved is only
   decidable once the components are probed (the record outlives the
   merge in its segment above the floor, so a naive replay would
   resurrect resolved tombstones and skew the count bookkeeping). *)
let apply_record ~buffer ~deletes ~replayed payload =
  match decode_record payload with
  | None -> ()  (* CRC-valid but foreign: version skew; skip *)
  | Some (0, e) ->
      Packed.replace buffer e;
      incr replayed
  | Some (_, e) ->
      let id = Entry.id e in
      if Packed.mem buffer id then Packed.remove buffer id
      else Hashtbl.replace deletes id e;
      incr replayed

(* Is [e] physically stored in some component?  [unreadable] answers
   for a component that failed to open: "maybe" is the conservative
   side for a deferred delete at replay, "no" for a live delete. *)
let stored_in_comps ~unreadable comps e =
  List.exists
    (fun c ->
      match c.c_state with
      | Failed _ -> unreadable
      | Live (idx, view) ->
          let found = ref false in
          ignore
            (Rtree.query_unrecorded ~snapshot:view (Index_file.tree idx) (Entry.rect e)
               ~f:(fun hit ->
                 if Entry.id hit = Entry.id e && Entry.equal hit e then found := true));
          !found)
    comps

(* Delete everything in the directory the chosen manifest does not
   account for: half-built components, dead WAL segments, stale
   manifests, .tmp leftovers.  Runs before the crash budget is armed,
   so plain Unix calls are correct here. *)
let reclaim_orphans ~dir (m : Manifest.t) ~chosen =
  let keep = Hashtbl.create 16 in
  Hashtbl.replace keep chosen ();
  Hashtbl.replace keep (Manifest.filename (m.Manifest.m_seq - 1)) ();
  List.iter
    (fun (c : Manifest.component) -> Hashtbl.replace keep c.Manifest.mc_file ())
    m.Manifest.m_components;
  let reclaimed = ref 0 in
  Array.iter
    (fun name ->
      if not (Hashtbl.mem keep name) then begin
        let ours =
          is_comp_filename name
          || Filename.check_suffix name ".tmp"
          || Manifest.seq_of_filename name <> None
          ||
          match wal_seq_of_filename name with
          | Some s -> s < m.Manifest.m_wal_floor
          | None -> false
        in
        if ours then begin
          (try Unix.unlink (Filename.concat dir name)
           with Unix.Unix_error _ -> ());
          incr reclaimed;
          Metrics.tick m_orphans
        end
      end)
    (try Sys.readdir dir with Sys_error _ -> [||]);
  !reclaimed

let make ?(buffer_capacity = 1024) ?(page_size = Pager.default_page_size)
    ?(wal_sync = `Always) ?retry_policy ?faults ?crash
    ?(background = false) ~fresh dirname =
  if buffer_capacity < 1 then invalid_arg "Lsm: buffer_capacity must be >= 1";
  let fsops = Fsops.create ?faults () in
  let retry =
    Retry.create ?policy:retry_policy
      ~observe:(function
        | Retry.Tripped -> Flight.failure "ingest.breaker_tripped"
        | _ -> ())
      ()
  in
  if fresh then begin
    (try Unix.mkdir dirname 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    if Manifest.load dirname <> None then
      invalid_arg ("Lsm.create: " ^ dirname ^ " already holds an index")
  end;
  let manifest, chosen =
    if fresh then begin
      (try
         Retry.run retry ~op:"ingest.manifest_init" (fun () ->
             Manifest.write ~fsops ~dir:dirname Manifest.empty)
       with Manifest.Published_unsynced _ ->
         (* Renamed into place: the empty manifest is live, only its
            directory sync is pending — the next publication syncs. *)
         ());
      (Manifest.empty, Manifest.filename 0)
    end
    else
      match Manifest.load dirname with
      | Some (m, name) -> (m, name)
      | None -> failwith ("Lsm.open_: no valid manifest in " ^ dirname)
  in
  let buffer = Packed.create buffer_capacity in
  let tombstones = ref (Ids.of_list manifest.Manifest.m_tombstones) in
  let comps =
    let opened = ref [] in
    match
      List.iter
        (fun mc -> opened := open_component ~page_size ~dir:dirname mc :: !opened)
        manifest.Manifest.m_components
    with
    | () -> List.sort (fun a b -> compare a.c_level b.c_level) (List.rev !opened)
    | exception e ->
        List.iter
          (fun c -> match c.c_state with Live (idx, _) -> Index_file.close idx | Failed _ -> ())
          !opened;
        raise e
  in
  (* Replay WAL segments at or above the floor, oldest first; the
     newest becomes the active segment again. *)
  let replayed = ref 0 in
  let next_seq = ref manifest.Manifest.m_next in
  let old_segments = ref [] in
  let segments =
    (try Sys.readdir dirname with Sys_error _ -> [||])
    |> Array.to_list
    |> List.filter_map (fun name ->
           match wal_seq_of_filename name with
           | Some s when s >= manifest.Manifest.m_wal_floor -> Some (s, name)
           | _ -> None)
    |> List.sort compare
  in
  let deletes = Hashtbl.create 16 in
  let f = apply_record ~buffer ~deletes ~replayed in
  let wal, wal_seq =
    let rec go = function
      | [] ->
          let seq = max !next_seq manifest.Manifest.m_wal_floor in
          next_seq := seq + 1;
          ( Retry.run retry ~op:"ingest.wal_open" (fun () ->
                Wal.create ~fsops (Filename.concat dirname (wal_file seq))),
            seq )
      | [ (seq, name) ] ->
          let path = Filename.concat dirname name in
          let _, valid, _torn = Wal.replay path ~f in
          next_seq := max !next_seq (seq + 1);
          ( Retry.run retry ~op:"ingest.wal_open" (fun () ->
                Wal.open_append ~fsops path ~valid),
            seq )
      | (seq, name) :: rest ->
          let path = Filename.concat dirname name in
          let _, valid, _ = Wal.replay path ~f in
          old_segments := (seq, path, valid) :: !old_segments;
          next_seq := max !next_seq (seq + 1);
          go rest
    in
    go segments
  in
  (* Resolve the deferred deletes against the opened components. *)
  Hashtbl.iter
    (fun id e ->
      if not (Packed.mem buffer id) && stored_in_comps ~unreadable:true comps e
      then tombstones := Ids.add id !tombstones)
    deletes;
  if !replayed > 0 then begin
    Metrics.add m_replayed !replayed;
    Flight.point ~arg:!replayed "ingest.replay"
  end;
  let orphans =
    if fresh then 0 else reclaim_orphans ~dir:dirname manifest ~chosen
  in
  let t =
    {
      dir = dirname;
      buffer_capacity;
      page_size;
      wal_sync;
      fsops;
      retry;
      mu = Mutex.create ();
      cond = Condition.create ();
      buffer;
      sealed = None;
      tombstones = !tombstones;
      comps;
      wal;
      wal_seq;
      old_segments = !old_segments;
      next_seq = !next_seq;
      manifest_seq = manifest.Manifest.m_seq;
      last_merge = manifest.Manifest.m_last_merge;
      merging = false;
      merge_wanted = false;
      merges = 0;
      merge_aborts = 0;
      replayed = !replayed;
      orphans_reclaimed = orphans;
      bytes_acked = 0;
      wal_bytes_written = 0;
      comp_pages_written = 0;
      retired = [];
      active_queries = 0;
      closed = false;
      fatal = None;
      background;
      worker = None;
    }
  in
  (* Recovery is done: arm the kill-point budget from here on. *)
  Fsops.set_crash fsops crash;
  t

(* --- counting --- *)

let count_locked t =
  List.fold_left (fun acc c -> acc + c.c_count) 0 t.comps
  + Packed.length t.buffer
  + (match t.sealed with Some s -> Packed.length s | None -> 0)
  - Ids.cardinal t.tombstones

let count t = with_lock t (fun () -> count_locked t)

let buffer_size t =
  with_lock t (fun () ->
      Packed.length t.buffer
      + match t.sealed with Some s -> Packed.length s | None -> 0)

let components t =
  with_lock t (fun () -> List.map (fun c -> (c.c_level, c.c_count)) t.comps)

(* --- merge machinery --- *)

(* Choose the target slot: walk levels upward, absorbing live
   components (failed ones keep their slot and are routed around) until
   an unoccupied level fits the running total — the logarithmic
   method's first-fitting-empty-slot rule, generalized to tolerate
   oversized sealed buffers and unreadable components. *)
let choose_slot t ~sealed_count =
  let comp_at j = List.find_opt (fun c -> c.c_level = j) t.comps in
  let rec go j participants total =
    match comp_at j with
    | Some { c_state = Failed _; _ } -> go (j + 1) participants total
    | Some ({ c_state = Live _; _ } as c) ->
        go (j + 1) (c :: participants) (total + c.c_count)
    | None ->
        if total <= cap t j then (j, participants)
        else go (j + 1) participants total
  in
  go 0 [] sealed_count

(* The tombstones as an open-addressing hash set, at most half full:
   a merge tests every entry it collects, and a probe here allocates
   nothing.  Ids are 32-bit, so [min_int] marks a free slot. *)
let free_slot = min_int

let[@inline] tomb_slot id mask = ((id * 0x9E3779B97F4A7C1) lsr 17) land mask

let tomb_table tomb =
  let size = ref 16 in
  while !size < 2 * Ids.cardinal tomb do
    size := 2 * !size
  done;
  let slots = Array.make !size free_slot and mask = !size - 1 in
  Ids.iter
    (fun id ->
      let i = ref (tomb_slot id mask) in
      while slots.(!i) <> free_slot do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- id)
    tomb;
  slots

let tombstoned slots id =
  let mask = Array.length slots - 1 in
  let i = ref (tomb_slot id mask) in
  while Array.unsafe_get slots !i <> free_slot && Array.unsafe_get slots !i <> id do
    i := (!i + 1) land mask
  done;
  Array.unsafe_get slots !i = id

(* Collect the live entries of the sealed buffer plus the participant
   components into the kernel's columns, filtering (and resolving)
   tombstones: the sealed buffer's columns, then each participant's
   entries as its descent leaves them, unboxed, in a hit buffer.
   Component reads go through the snapshot path: safe from the merge
   domain. *)
let collect_columns ~sealed ~participants ~tomb =
  let tombs = tomb_table tomb in
  let live =
    List.filter_map
      (fun c -> match c.c_state with Live (idx, view) -> Some (idx, view) | Failed _ -> None)
      participants
  in
  let capacity =
    List.fold_left
      (fun n (idx, _) -> n + Rtree.count (Index_file.tree idx))
      (Packed.length sealed) live
  in
  let cols = Array.init 4 (fun _ -> Float.Array.create capacity) in
  let ids = ref (Array.make capacity 0) and len = ref 0 and resolved = ref [] in
  (* Room for [more] entries: a component holding more entries than its
     tree counts (it cannot, short of damage) grows the columns rather
     than overrun them. *)
  let reserve more =
    if !len + more > Array.length !ids then begin
      let cap = !len + more in
      for c = 0 to 3 do
        let a = Float.Array.create cap in
        Float.Array.blit cols.(c) 0 a 0 !len;
        cols.(c) <- a
      done;
      let a = Array.make cap 0 in
      Array.blit !ids 0 a 0 !len;
      ids := a
    end
  in
  let packed =
    Packed.[| sealed.xmin; sealed.ymin; sealed.xmax; sealed.ymax |]
  in
  for i = 0 to Packed.length sealed - 1 do
    let id = sealed.Packed.ids.(i) in
    if tombstoned tombs id then resolved := id :: !resolved
    else begin
      let k = !len in
      for c = 0 to 3 do
        Float.Array.unsafe_set cols.(c) k (Float.Array.unsafe_get packed.(c) i)
      done;
      Array.unsafe_set !ids k id;
      len := k + 1
    end
  done;
  let hits = Rtree.hits_make () in
  List.iter
    (fun (idx, view) ->
      let tree = Index_file.tree idx in
      match Rtree.mbr tree with
      | None -> ()
      | Some window ->
          Rtree.query_into_unrecorded ~snapshot:view tree window ~into:hits;
          let n = Rtree.hits_length hits and r = Rtree.hits_coords hits in
          reserve n;
          for i = 0 to n - 1 do
            let id = Rtree.hits_id hits i in
            if tombstoned tombs id then resolved := id :: !resolved
            else begin
              let k = !len in
              for c = 0 to 3 do
                Float.Array.unsafe_set cols.(c) k (Float.Array.unsafe_get r ((4 * i) + c))
              done;
              Array.unsafe_set !ids k id;
              len := k + 1
            end
          done)
    live;
  ({ Pseudo.cols; ids = !ids; origin = [||]; len = !len }, !resolved)

(* fsync through [Fsops], so the sync is a fault site and a kill point
   like the rename after it. *)
let sync_file t path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Fsops.fsync t.fsops fd)

(* In memory however large the merge: [collect_columns] already holds
   every entry in its columns, so the external loader would bound no
   memory here (see lsm.mli).  The file is synced before the rename: the
   manifest that names it moves the WAL floor past the records it
   absorbed, so its pages must be durable first. *)
let build_component t ~seq ~columns =
  let tmp = Filename.concat t.dir (comp_file seq ^ ".tmp") in
  let final = Filename.concat t.dir (comp_file seq) in
  let built = ref None in
  match
    let idx =
      Index_file.create ~page_size:t.page_size ?crash:(Fsops.crash t.fsops) tmp
        ~build:(fun pool -> Prtree.load_columns pool columns)
    in
    built := Some idx;
    let pages = (Pager.snapshot (Index_file.pager idx)).Pager.s_writes in
    sync_file t tmp;
    Fsops.rename t.fsops ~src:tmp ~dst:final;
    Fsops.fsync_dir t.fsops t.dir;
    (idx, pages)
  with
  | idx, pages -> (idx, Index_file.with_snapshot idx Fun.id, pages)
  | exception e ->
      (* A failed create has closed its own pager. *)
      Option.iter Index_file.close !built;
      (* Only a transient fault may clean up; at a kill point the
         half-built file must stay behind for the opener to reclaim.
         The fault may have hit the build or either side of the rename,
         so remove whichever name exists — the retry rebuilds under a
         fresh seq and nothing references this one yet. *)
      (match e with
      | Pager.Io_error _ ->
          (try Unix.unlink tmp with Unix.Unix_error _ -> ());
          (try Unix.unlink final with Unix.Unix_error _ -> ())
      | _ -> ());
      raise e

(* One full merge attempt: collect, build, publish, swap in memory.
   Runs with no lock held except for the slot choice and the publish
   step.  Raises Pager.Io_error on injected faults (the caller retries
   under the Retry engine) and Simulated_crash on an exhausted kill
   budget. *)
let merge_attempt t ~compact_all =
  let sealed, tomb, floor_seq, (level, participants) =
    with_lock t (fun () ->
        (* Copy, don't alias: a concurrent seal coalesces the next
           buffer generation into [t.sealed] while this merge runs, and
           those entries belong to the NEXT merge. *)
        let sealed =
          match t.sealed with Some s -> Packed.copy s | None -> Packed.create 0
        in
        (* Every sealed entry lives below the active segment, so that
           segment is the new WAL floor — read with the copy: a seal
           landing between an earlier read and the copy would leave
           entries this merge absorbs above the floor, and a reopen
           would replay them beside the component that holds them. *)
        let floor_seq = t.wal_seq in
        let tomb = t.tombstones in
        let target =
          if compact_all then begin
            let live =
              List.filter
                (fun c -> match c.c_state with Live _ -> true | _ -> false)
                t.comps
            in
            let total =
              Packed.length sealed
              + List.fold_left (fun a c -> a + c.c_count) 0 live
            in
            let blocked j =
              List.exists
                (fun c ->
                  c.c_level = j
                  && match c.c_state with Failed _ -> true | _ -> false)
                t.comps
            in
            let rec fit j =
              if (not (blocked j)) && total <= cap t j then j else fit (j + 1)
            in
            (fit 0, live)
          end
          else choose_slot t ~sealed_count:(Packed.length sealed)
        in
        (sealed, tomb, floor_seq, target))
  in
  let columns, resolved = collect_columns ~sealed ~participants ~tomb in
  let seq =
    with_lock t (fun () ->
        let s = t.next_seq in
        t.next_seq <- s + 1;
        s)
  in
  let built =
    if columns.Pseudo.len = 0 then None
    else Some (build_component t ~seq ~columns)
  in
  let participant_files = List.map (fun c -> comp_path t c) participants in
  let outcome =
    Printf.sprintf "ok: %s%d entries -> level %d (%d component%s absorbed)"
      (if compact_all then "compacted " else "")
      columns.Pseudo.len level
      (List.length participants)
      (if List.length participants = 1 then "" else "s")
  in
  (* Publish: one manifest swap under the lock, then commit in memory. *)
  with_lock t (fun () ->
      t.tombstones <-
        List.fold_left (fun s id -> Ids.remove id s) t.tombstones resolved;
      let keep = List.filter (fun c -> not (List.memq c participants)) t.comps in
      let new_comp =
        Option.map
          (fun (idx, view, _) ->
            {
              c_level = level;
              c_seq = seq;
              c_file = comp_file seq;
              c_count = columns.Pseudo.len;
              c_state = Live (idx, view);
              c_exec = None;
            })
          built
      in
      let comps' =
        List.sort
          (fun a b -> compare a.c_level b.c_level)
          (match new_comp with Some c -> c :: keep | None -> keep)
      in
      (* A tombstone on an id that a mid-merge seal coalesced (sealed,
         but not in this merge's copy) stays in memory for the next
         merge to resolve.  Its delete record lies above the new floor
         with the insert it cancels on replay; a manifest copy would
         outlive both and tombstone nothing. *)
      let still_sealed id =
        match t.sealed with
        | Some s -> Packed.mem s id && not (Packed.mem sealed id)
        | None -> false
      in
      let m =
        {
          Manifest.m_seq = t.manifest_seq + 1;
          m_next = t.next_seq;
          m_wal_floor = floor_seq;
          m_components =
            List.map
              (fun c ->
                {
                  Manifest.mc_level = c.c_level;
                  mc_seq = c.c_seq;
                  mc_file = c.c_file;
                  mc_count = c.c_count;
                })
              comps';
          m_tombstones =
            Ids.elements
              (Ids.filter (fun id -> not (still_sealed id)) t.tombstones);
          m_last_merge = outcome;
        }
      in
      (match Manifest.write ~fsops:t.fsops ~dir:t.dir m with
      | () -> ()
      | exception Manifest.Published_unsynced _ ->
          (* The rename landed: the new manifest IS the on-disk truth
             and only its directory sync is missing.  Rolling back here
             would delete a component the durable manifest references
             and strand sealed entries below the advanced WAL floor.
             Re-attempt the sync; if the device keeps faulting, commit
             anyway with a widened power-loss window — the same
             weakening the seal applies to its rotated-segment sync. *)
          Flight.failure "ingest.manifest_sync_deferred";
          (try
             Retry.run t.retry ~op:"ingest.manifest_sync" (fun () ->
                 Fsops.fsync_dir t.fsops t.dir)
           with Pager.Io_error _ -> ())
      | exception e ->
          (* The swap failed before publication: the old manifest still
             rules.  On a transient fault, roll the in-memory side back
             so the retry (or the abort path) sees consistent pre-merge
             state; at a kill point, leave the disk exactly as it is. *)
          (match e with
          | Pager.Io_error _ -> (
              t.tombstones <-
                List.fold_left (fun s id -> Ids.add id s) t.tombstones resolved;
              match built with
              | Some (idx, _, _) ->
                  Index_file.close idx;
                  (try Unix.unlink (Filename.concat t.dir (comp_file seq))
                   with Unix.Unix_error _ -> ())
              | None -> ())
          | _ -> ());
          raise e);
      Flight.point ~arg:m.Manifest.m_seq "ingest.manifest_swap";
      t.manifest_seq <- m.Manifest.m_seq;
      t.retired <-
        List.fold_left
          (fun acc c ->
            match c.c_state with Live (idx, _) -> idx :: acc | Failed _ -> acc)
          t.retired participants;
      t.comps <- comps';
      (* Remove exactly the entries this merge absorbed; anything a
         mid-merge seal coalesced in stays sealed for the next one. *)
      (match t.sealed with
      | Some s ->
          for i = 0 to Packed.length sealed - 1 do
            Packed.remove s sealed.Packed.ids.(i)
          done;
          if Packed.length s = 0 then t.sealed <- None
      | None -> ());
      t.merges <- t.merges + 1;
      t.last_merge <- outcome;
      (match built with
      | Some (_, _, pages) -> t.comp_pages_written <- t.comp_pages_written + pages
      | None -> ());
      Metrics.tick m_merges;
      Metrics.add m_merge_entries columns.Pseudo.len);
  (* Post-commit cleanup: every unlink is its own kill point; a crash
     here leaves orphans for the next open to reclaim.  Open snapshot
     descriptors keep the unlinked participants readable until the
     retired handles drain. *)
  List.iter (fun p -> Fsops.unlink t.fsops p) participant_files;
  let dead =
    List.filter
      (fun (s, _, _) -> s < floor_seq)
      (with_lock t (fun () -> t.old_segments))
  in
  List.iter (fun (_, p, _) -> Fsops.unlink t.fsops p) dead;
  (* Re-partition the CURRENT list under the final lock: a seal that
     ran between the read above and here appended a fresh rotated-out
     segment that a stale write-back would silently drop. *)
  with_lock t (fun () ->
      t.old_segments <-
        List.filter (fun (s, _, _) -> s >= floor_seq) t.old_segments);
  (* A merge allocates almost nothing on the minor heap, so no minor
     collection paces the major GC through the columns, hit buffer and
     pages it left there: without this slice that work falls on the
     operations after it, and on the query tail (DESIGN.md, the
     ingestion model). *)
  ignore (Gc.major_slice 0)

(* Seal the active buffer (coalescing into any sealed leftover from an
   aborted merge) and rotate the WAL.  Caller holds the lock.  After
   this, every sealed record lives in a segment below the new active
   one, so a merge of the sealed set may advance the floor there. *)
let seal_locked_body t =
  let seq = t.next_seq in
  (* Open the successor segment FIRST: if this fails (transiently, past
     retries), nothing has changed — the active segment still rules and
     the seal is simply deferred to the next trigger. *)
  let fresh =
    Retry.run t.retry ~op:"ingest.wal_rotate" (fun () ->
        Wal.create ~fsops:t.fsops (Filename.concat t.dir (wal_file seq)))
  in
  t.next_seq <- seq + 1;
  (match t.sealed with
  | None -> t.sealed <- Some t.buffer
  | Some s -> Packed.iter (Packed.replace s) t.buffer);
  t.buffer <- Packed.create t.buffer_capacity;
  let old = t.wal in
  let old_path = Wal.path old and old_seq = t.wal_seq in
  (* Make the rotated-out segment durable even under `Never; a
     transient sync fault only widens the power-loss window (the bytes
     are written), so it must not fail an already-acknowledged seal. *)
  (try Retry.run t.retry ~op:"ingest.seal_sync" (fun () -> Wal.sync old)
   with Pager.Io_error _ -> ());
  let old_size = Wal.size old in
  Wal.close old;
  t.old_segments <- (old_seq, old_path, old_size) :: t.old_segments;
  t.wal <- fresh;
  t.wal_seq <- seq;
  t.merge_wanted <- true;
  Metrics.tick m_absorbs

(* A kill point during the rotation (the new segment's create) dies
   with the handle poisoned, like every other crash path. *)
let seal_locked t =
  try seal_locked_body t
  with Failpoint.Simulated_crash _ as ex ->
    t.fatal <- Some ex;
    raise ex

(* Run the pending merge now, on the calling domain.  The caller must
   NOT hold the lock.  Returns whether a merge actually ran (false:
   nothing sealed, or another domain holds the merge).  On failure,
   [raise_on_error] distinguishes flush/compact (propagate the
   Io_error) from insert-triggered absorbs (record the abort and move
   on — the sealed entries stay durable and queryable, and the next
   trigger retries). *)
let merge_pending t ~compact_all ~raise_on_error =
  let proceed =
    with_lock t (fun () ->
        if t.merging || t.closed || t.fatal <> None then false
        else if t.sealed = None && not compact_all then false
        else begin
          t.merging <- true;
          true
        end)
  in
  if proceed then begin
    Flight.begin_span "ingest.merge";
    let finish_abort e =
      with_lock t (fun () ->
          t.merge_aborts <- t.merge_aborts + 1;
          t.merge_wanted <- false;
          t.last_merge <-
            Printf.sprintf "aborted: %s"
              (match e with
              | Pager.Io_error m -> m
              | Pager.Corrupt_page m -> "corrupt page: " ^ m
              | e -> Printexc.to_string e);
          t.merging <- false;
          Condition.broadcast t.cond);
      Metrics.tick m_merge_aborts;
      Flight.failure ~note:t.last_merge "ingest.merge_abort";
      Flight.end_span "ingest.merge"
    in
    (match
       Retry.run t.retry ~op:"ingest.merge" (fun () ->
           merge_attempt t ~compact_all)
     with
    | () ->
        with_lock t (fun () ->
            (* Sealed leftovers from a mid-merge coalesce keep the want
               flag up so the worker drains them. *)
            if t.sealed = None then t.merge_wanted <- false;
            t.merging <- false;
            Condition.broadcast t.cond);
        Flight.end_span "ingest.merge"
    | exception (Pager.Io_error _ as e) ->
        finish_abort e;
        if raise_on_error then raise e
    | exception (Pager.Corrupt_page _ as e) ->
        (* A corrupt participant page: retrying is useless, silently
           dropping its entries is worse.  Abort; the component stays
           queryable through its quarantine-degraded reads. *)
        finish_abort e;
        if raise_on_error then raise e
    | exception e ->
        (* A simulated crash (or an unexpected bug): the handle is
           dead.  Leave the merging flag set so nothing else runs,
           record the exception, and propagate. *)
        with_lock t (fun () ->
            t.fatal <- Some e;
            Condition.broadcast t.cond);
        raise e);
    true
  end
  else false

(* Drive the pending work to completion from flush/compact: run the
   merge here if we can take it, otherwise wait out whoever holds it —
   and if their attempt aborted (leaving the seal behind), take over
   and raise the real error. *)
let rec run_now t ~compact_all =
  if not (merge_pending t ~compact_all ~raise_on_error:true) then begin
    let again =
      with_lock t (fun () ->
          while t.merging do
            Condition.wait t.cond t.mu
          done;
          check_usable t;
          compact_all || t.sealed <> None)
    in
    if again then run_now t ~compact_all
  end

(* --- background merge domain --- *)

let rec worker_loop t =
  let job =
    with_lock t (fun () ->
        let rec wait () =
          if t.closed || t.fatal <> None then `Stop
          else if t.merge_wanted && t.sealed <> None && not t.merging then
            `Merge
          else begin
            Condition.wait t.cond t.mu;
            wait ()
          end
        in
        wait ())
  in
  match job with
  | `Stop -> ()
  | `Merge ->
      (try ignore (merge_pending t ~compact_all:false ~raise_on_error:false)
       with _ -> () (* fatal recorded; the wait above exits *));
      worker_loop t

let start_worker t =
  if t.background then t.worker <- Some (Domain.spawn (fun () -> worker_loop t))

let create ?buffer_capacity ?page_size ?wal_sync ?retry_policy
    ?faults ?crash ?background dirname =
  let t =
    make ?buffer_capacity ?page_size ?wal_sync ?retry_policy
      ?faults ?crash ?background ~fresh:true dirname
  in
  start_worker t;
  t

let open_ ?buffer_capacity ?page_size ?wal_sync ?retry_policy
    ?faults ?crash ?background dirname =
  let t =
    make ?buffer_capacity ?page_size ?wal_sync ?retry_policy
      ?faults ?crash ?background ~fresh:false dirname
  in
  start_worker t;
  t

(* --- writes --- *)

(* Append one record, under the lock.  Bounded retries absorb transient
   append/sync faults (the WAL truncates its torn prefix back before
   each retry, keeping the segment frame-aligned); an exhausted budget
   fails the insert — nothing was acknowledged.  A kill point poisons
   the handle: the process is dead at that ordinal. *)
let log_record t tag e =
  try
    Retry.run t.retry ~op:"ingest.wal" (fun () ->
        Wal.append t.wal (encode_record tag e);
        match t.wal_sync with `Always -> Wal.sync t.wal | `Never -> ());
    t.wal_bytes_written <- t.wal_bytes_written + record_size + Wal.frame_overhead;
    Metrics.add m_wal_bytes (record_size + Wal.frame_overhead)
  with Failpoint.Simulated_crash _ as ex ->
    t.fatal <- Some ex;
    raise ex

let insert t e =
  (* A rectangle [Node.decode] refuses — a NaN coordinate fails its
     [xmin <= xmax && ymin <= ymax] — would be written by the merge that
     absorbs it into a component page no query, merge or validate could
     read again: refuse it before the WAL append, so nothing is
     acknowledged. *)
  let r = Entry.rect e in
  if not (r.Rect.xmin <= r.Rect.xmax && r.Rect.ymin <= r.Rect.ymax) then
    invalid_arg (Format.asprintf "Lsm.insert: rectangle %a does not decode" Rect.pp r);
  let trigger =
    with_lock t (fun () ->
        check_usable t;
        let id = Entry.id e in
        if
          Packed.mem t.buffer id
          || match t.sealed with Some s -> Packed.mem s id | None -> false
        then invalid_arg "Lsm.insert: duplicate entry id in buffer";
        (* An unresolved tombstone means a dead copy of this id still
           lives in some component; the id-keyed tombstone cannot tell
           that copy apart from a re-insert, so admitting one would
           both hide the new entry from queries and drop it at the next
           merge while the dead copy resurrects.  Reject until a merge
           resolves the tombstone (flush/compact forces that). *)
        if Ids.mem id t.tombstones then
          invalid_arg "Lsm.insert: id has an unresolved tombstone";
        (* Background mode: a full buffer on top of an unmerged seal
           waits here rather than growing without bound. *)
        if t.background then
          while
            Packed.length t.buffer >= t.buffer_capacity
            && t.sealed <> None
            && t.merge_wanted  (* after an abort, coalesce instead *)
            && t.fatal = None
            && not t.closed
          do
            Condition.wait t.cond t.mu
          done;
        check_usable t;
        log_record t 0 e;
        Packed.replace t.buffer e;
        t.bytes_acked <- t.bytes_acked + record_size;
        Metrics.tick m_inserts;
        if Packed.length t.buffer >= t.buffer_capacity then begin
          (* This insert is already acknowledged (logged + buffered): a
             transient rotation failure defers the seal to the next
             trigger rather than failing a durable insert. *)
          match seal_locked t with
          | () ->
              Condition.broadcast t.cond;
              true
          | exception Pager.Io_error _ -> false
        end
        else false)
  in
  if trigger && not t.background then
    ignore (merge_pending t ~compact_all:false ~raise_on_error:false)

(* Every reader of component pages registers in active_queries; retired
   handles (unlinked by a merge commit, still open) are only closed
   once the count drains to zero. *)
let drain_retired_locked t =
  if t.active_queries = 0 && t.retired <> [] then begin
    let dead = t.retired in
    t.retired <- [];
    List.iter Index_file.close dead
  end

let finish_query t =
  with_lock t (fun () ->
      t.active_queries <- t.active_queries - 1;
      drain_retired_locked t)

(* Is [e] stored in some component?  Registered as a query: a
   concurrent merge commit may retire the captured handles, and only
   the active_queries count keeps drain_retired_locked from closing
   them under our feet. *)
let mem_stored t e =
  let comps =
    with_lock t (fun () ->
        t.active_queries <- t.active_queries + 1;
        t.comps)
  in
  Fun.protect
    ~finally:(fun () -> finish_query t)
    (fun () -> stored_in_comps ~unreadable:false comps e)

(* One lock hold decides whatever needs no component read: a buffered
   entry is dropped, and a sealed one (left behind by an aborted merge)
   is tombstoned for the merge that absorbs the sealed set to resolve.
   Only a component-resident entry needs the unlocked probe, after
   which the decision is retaken under the lock: a concurrent insert
   may have re-buffered the id meanwhile, and an id-keyed tombstone
   would kill that acknowledged insert too. *)
let delete t e =
  let id = Entry.id e in
  let decide ~stored =
    with_lock t (fun () ->
        check_usable t;
        let sealed_hit () =
          match Option.bind t.sealed (fun s -> Packed.find_opt s id) with
          | Some e' -> Entry.equal e e'
          | None -> false
        in
        if Packed.mem t.buffer id then begin
          log_record t 1 e;
          Packed.remove t.buffer id;
          Metrics.tick m_deletes;
          `Deleted
        end
        else if Ids.mem id t.tombstones then `Absent
        else if stored || sealed_hit () then begin
          log_record t 1 e;
          t.tombstones <- Ids.add id t.tombstones;
          Metrics.tick m_deletes;
          Metrics.tick m_tombstones;
          `Deleted
        end
        else `Probe)
  in
  match decide ~stored:false with
  | `Deleted -> true
  | `Absent -> false
  | `Probe -> mem_stored t e && decide ~stored:true = `Deleted

let flush t =
  with_lock t (fun () ->
      check_usable t;
      if Packed.length t.buffer > 0 then seal_locked t);
  run_now t ~compact_all:false

let compact t =
  with_lock t (fun () ->
      check_usable t;
      if Packed.length t.buffer > 0 then seal_locked t);
  run_now t ~compact_all:true

let wait_merges t =
  with_lock t (fun () ->
      while
        t.merging || (t.merge_wanted && t.sealed <> None && t.fatal = None)
      do
        Condition.wait t.cond t.mu
      done)

(* --- queries --- *)

let is_dead tomb e = Ids.mem (Entry.id e) tomb

(* The buffered and sealed hits of [window].  Caller holds the lock. *)
let scan_memory t window =
  Packed.scan t.buffer window
    (match t.sealed with Some s -> Packed.scan s window [] | None -> [])

let query ?deadline t window ~f =
  (* Capture a consistent view for the fan-out: buffer/sealed matches,
     the component list and a tombstone snapshot, all under the lock;
     the component descents then run without it. *)
  let memory, comps, tomb =
    with_lock t (fun () ->
        check_usable t;
        t.active_queries <- t.active_queries + 1;
        (scan_memory t window, t.comps, t.tombstones))
  in
  Fun.protect
    ~finally:(fun () -> finish_query t)
    (fun () ->
      let stats = Rtree.fresh_stats () in
      let matched = ref 0 in
      List.iter
        (fun e ->
          if not (is_dead tomb e) then begin
            incr matched;
            f e
          end)
        memory;
      List.iter
        (fun c ->
          match c.c_state with
          | Failed _ ->
              stats.Rtree.skipped_subtrees <- stats.Rtree.skipped_subtrees + 1
          | Live (idx, view) -> (
              match
                Rtree.query_unrecorded ~quarantine:(Index_file.quarantine idx) ?deadline
                  ~snapshot:view (Index_file.tree idx) window ~f:(fun e ->
                    if not (is_dead tomb e) then begin
                      incr matched;
                      f e
                    end)
              with
              | s -> Rtree.merge_stats stats s
              | exception _ ->
                  (* An unexpectedly dead component degrades its own
                     contribution only.  c_state is read under the lock
                     by merges/stats, so the demotion takes it too. *)
                  with_lock t (fun () -> c.c_state <- Failed "query failed");
                  stats.Rtree.skipped_subtrees <-
                    stats.Rtree.skipped_subtrees + 1))
        comps;
      stats.Rtree.matched <- !matched;
      stats)

let query_list ?deadline t window =
  let acc = ref [] in
  let stats = query ?deadline t window ~f:(fun e -> acc := e :: !acc) in
  (List.rev !acc, stats)

let query_batch ?jobs ?deadline t windows =
  (* The buffer scans run under the lock, as in [query]: a few
     nanoseconds per buffered entry and window. *)
  let memory, comps, tomb =
    with_lock t (fun () ->
        check_usable t;
        t.active_queries <- t.active_queries + 1;
        (Array.map (scan_memory t) windows, t.comps, t.tombstones))
  in
  Fun.protect
    ~finally:(fun () -> finish_query t)
    (fun () ->
      let results =
        Array.map
          (fun hits ->
            let hits = List.filter (fun e -> not (is_dead tomb e)) hits in
            (ref (List.rev hits), Rtree.fresh_stats (), ref (List.length hits)))
          memory
      in
      List.iter
        (fun c ->
          match c.c_state with
          | Failed _ ->
              Array.iter
                (fun (_, s, _) ->
                  s.Rtree.skipped_subtrees <- s.Rtree.skipped_subtrees + 1)
                results
          | Live (idx, _) ->
              let exec =
                with_lock t (fun () ->
                    match c.c_exec with
                    | Some e -> e
                    | None ->
                        let e = Index_file.executor idx in
                        c.c_exec <- Some e;
                        e)
              in
              let out = Qexec.run ?jobs ?deadline exec windows in
              Array.iteri
                (fun i (entries, s) ->
                  let acc, stats, matched = results.(i) in
                  List.iter
                    (fun e ->
                      if not (is_dead tomb e) then begin
                        acc := e :: !acc;
                        incr matched
                      end)
                    entries;
                  Rtree.merge_stats stats s)
                out)
        comps;
      Array.map
        (fun (acc, stats, matched) ->
          stats.Rtree.matched <- !matched;
          (List.rev !acc, stats))
        results)

(* --- stats / validate / close --- *)

type stats = {
  s_components : (int * int * bool) list;
  s_buffer : int;
  s_sealed : int;
  s_tombstones : int;
  s_wal_bytes : int;
  s_wal_segments : int;
  s_replayed : int;
  s_orphans_reclaimed : int;
  s_last_merge : string;
  s_merges : int;
  s_merge_aborts : int;
  s_bytes_acked : int;
  s_bytes_written : int;
}

let stats t =
  with_lock t (fun () ->
      {
        s_components =
          List.map
            (fun c ->
              ( c.c_level,
                c.c_count,
                match c.c_state with Live _ -> true | Failed _ -> false ))
            t.comps;
        s_buffer = Packed.length t.buffer;
        s_sealed = (match t.sealed with Some s -> Packed.length s | None -> 0);
        s_tombstones = Ids.cardinal t.tombstones;
        s_wal_bytes =
          Wal.size t.wal
          + List.fold_left (fun a (_, _, b) -> a + b) 0 t.old_segments;
        s_wal_segments = 1 + List.length t.old_segments;
        s_replayed = t.replayed;
        s_orphans_reclaimed = t.orphans_reclaimed;
        s_last_merge = t.last_merge;
        s_merges = t.merges;
        s_merge_aborts = t.merge_aborts;
        s_bytes_acked = t.bytes_acked;
        s_bytes_written =
          t.wal_bytes_written + (t.comp_pages_written * t.page_size);
      })

let validate t =
  let comps =
    with_lock t (fun () ->
        check_usable t;
        t.comps)
  in
  List.iter
    (fun c ->
      match c.c_state with
      | Failed _ -> ()
      | Live (idx, _) ->
          let tree = Index_file.tree idx in
          ignore (Prt_rtree.Audit.validate tree);
          if Rtree.count tree <> c.c_count then
            failwith
              (Printf.sprintf
                 "Lsm.validate: component %s holds %d entries, manifest says %d"
                 c.c_file (Rtree.count tree) c.c_count))
    comps;
  with_lock t (fun () ->
      if count_locked t < 0 then failwith "Lsm.validate: negative live count")

let close t =
  let first, worker =
    with_lock t (fun () ->
        if t.closed then (false, None)
        else begin
          t.closed <- true;
          Condition.broadcast t.cond;
          let w = t.worker in
          t.worker <- None;
          (true, w)
        end)
  in
  if first then begin
    (match worker with Some d -> Domain.join d | None -> ());
    with_lock t (fun () ->
        (try
           Wal.sync t.wal;
           Wal.close t.wal
         with _ -> ());
        List.iter
          (fun c ->
            match c.c_state with
            | Live (idx, _) -> Index_file.close idx
            | Failed _ -> ())
          t.comps;
        List.iter Index_file.close t.retired;
        t.retired <- [])
  end
