(* External-memory record files and sorting — the substrate the paper
   gets from TPIE.

   A record file is a sequence of fixed-size records packed into pager
   pages; every page touched is a counted I/O.  [sort] is the classic
   external multiway mergesort: sorted runs of [mem_records] records,
   then repeated k-way merges where k is chosen so that the k input
   buffers plus the output buffer fit in the same memory budget.  All
   bulk-loading algorithms in the repository express their scans,
   distributions and sorts through this module, which is what makes
   their I/O counts comparable to the paper's. *)

module Pager = Prt_storage.Pager
module Page = Prt_storage.Page
module Pqueue = Prt_util.Pqueue
module Metrics = Prt_obs.Metrics
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

(* Phase-level observability for the external sort: one span per run
   formation and per k-way merge, so a trace of a bulk load shows where
   its sort I/Os go.  Counters aggregate across all record types. *)
let m_runs = Metrics.counter "extsort.runs"
let m_merges = Metrics.counter "extsort.merges"
let m_records_sorted = Metrics.counter "extsort.records_sorted"
let h_run_len = Metrics.histogram "extsort.run_records"

(* Record files stream straight through the pager (deliberately: a
   sequential scan must not evict the buffer pool's cache), so they
   absorb transient device faults themselves through the shared
   {!Prt_storage.Retry} engine.  The default policy's 5 attempts
   outlast any failpoint with the default max_consecutive cap; a
   permanent fault still surfaces as [Pager.Io_error].  Retrying is
   safe because every operation here is a full-page read or a
   full-page (re-)write. *)
module Retry = Prt_storage.Retry

let retry_engine = Retry.create ()
let with_retry f = Retry.run retry_engine ~op:"record_file" f

module type RECORD = sig
  type t

  val size : int
  val write : bytes -> int -> t -> unit
  val read : bytes -> int -> t
end

module Make (R : RECORD) = struct
  type t = {
    pager : Pager.t;
    mutable pages : int array;
    mutable npages : int;
    mutable count : int;
    mutable tail : bytes option; (* unwritten partial page while writing *)
    mutable tail_used : int;     (* records buffered in [tail] *)
    mutable sealed : bool;
  }

  let per_page pager =
    let n = Pager.payload_size pager / R.size in
    if n < 1 then invalid_arg "Record_file: record larger than a page";
    n

  let create pager =
    ignore (per_page pager);
    { pager; pages = Array.make 8 (-1); npages = 0; count = 0; tail = None; tail_used = 0;
      sealed = false }

  let length t = t.count

  let pages_used t = t.npages + (match t.tail with Some _ -> 1 | None -> 0)

  let push_page t id =
    if t.npages = Array.length t.pages then begin
      let pages = Array.make (2 * t.npages) (-1) in
      Array.blit t.pages 0 pages 0 t.npages;
      t.pages <- pages
    end;
    t.pages.(t.npages) <- id;
    t.npages <- t.npages + 1

  let append t record =
    if t.sealed then invalid_arg "Record_file.append: file is sealed";
    let buf =
      match t.tail with
      | Some buf -> buf
      | None ->
          let buf = Page.create (Pager.page_size t.pager) in
          t.tail <- Some buf;
          t.tail_used <- 0;
          buf
    in
    R.write buf (t.tail_used * R.size) record;
    t.tail_used <- t.tail_used + 1;
    t.count <- t.count + 1;
    if t.tail_used = per_page t.pager then begin
      let id = with_retry (fun () -> Pager.alloc t.pager) in
      with_retry (fun () -> Pager.write t.pager id buf);
      push_page t id;
      t.tail <- None;
      t.tail_used <- 0
    end

  let seal t =
    if not t.sealed then begin
      (match t.tail with
      | Some buf ->
          let id = with_retry (fun () -> Pager.alloc t.pager) in
          with_retry (fun () -> Pager.write t.pager id buf);
          push_page t id;
          t.tail <- None;
          t.tail_used <- 0
      | None -> ());
      t.sealed <- true
    end

  let of_array pager records =
    let t = create pager in
    Array.iter (append t) records;
    seal t;
    t

  let destroy t =
    seal t;
    for i = 0 to t.npages - 1 do
      Pager.free t.pager t.pages.(i)
    done;
    t.npages <- 0;
    t.count <- 0

  (* Sequential readers: one page buffer each. *)

  type reader = {
    file : t;
    buf : bytes;
    mutable page_idx : int;   (* next page to load *)
    mutable in_page : int;    (* records remaining in current buffer *)
    mutable offset : int;     (* byte offset of next record in buffer *)
    mutable remaining : int;  (* records remaining in the whole file *)
  }

  let reader t =
    if not t.sealed then invalid_arg "Record_file.reader: file not sealed";
    {
      file = t;
      buf = Page.create (Pager.page_size t.pager);
      page_idx = 0;
      in_page = 0;
      offset = 0;
      remaining = t.count;
    }

  let read_next r =
    if r.remaining = 0 then None
    else begin
      if r.in_page = 0 then begin
        with_retry (fun () -> Pager.read_into r.file.pager r.file.pages.(r.page_idx) r.buf);
        r.page_idx <- r.page_idx + 1;
        r.in_page <- min (per_page r.file.pager) r.remaining;
        r.offset <- 0
      end;
      let record = R.read r.buf r.offset in
      r.offset <- r.offset + R.size;
      r.in_page <- r.in_page - 1;
      r.remaining <- r.remaining - 1;
      Some record
    end

  let iter t f =
    let r = reader t in
    let rec loop () =
      match read_next r with
      | Some record ->
          f record;
          loop ()
      | None -> ()
    in
    loop ()

  let read_all t =
    let result = ref [] in
    let r = reader t in
    let rec loop () =
      match read_next r with
      | Some record ->
          result := record :: !result;
          loop ()
      | None -> ()
    in
    loop ();
    let arr = Array.of_list (List.rev !result) in
    arr

  (* External mergesort. *)

  let merge_runs pager cmp runs =
    Trace.with_span "extsort.merge"
      ~args:[ ("fan_in", Json.Int (List.length runs)) ]
      (fun () ->
        Metrics.tick m_merges;
        let out = create pager in
        let heap = Pqueue.create (fun (a, _) (b, _) -> cmp a b) in
        let readers = Array.of_list (List.map reader runs) in
        Array.iteri
          (fun i r ->
            match read_next r with Some record -> Pqueue.add heap (record, i) | None -> ())
          readers;
        let rec drain () =
          match Pqueue.pop heap with
          | None -> ()
          | Some (record, i) ->
              append out record;
              (match read_next readers.(i) with
              | Some next -> Pqueue.add heap (next, i)
              | None -> ());
              drain ()
        in
        drain ();
        seal out;
        List.iter destroy runs;
        out)

  let sort ~mem_records ~cmp t =
    seal t;
    let pager = t.pager in
    let per = per_page pager in
    if mem_records < 2 * per then
      invalid_arg "Record_file.sort: memory budget below two pages of records";
    (* Phase 1: sorted runs of at most [mem_records] records. *)
    let input = reader t in
    let chunk = ref [] and chunk_len = ref 0 in
    let runs = ref [] in
    let flush_chunk () =
      if !chunk_len > 0 then begin
        Metrics.tick m_runs;
        Metrics.observe h_run_len !chunk_len;
        let arr = Array.of_list !chunk in
        Array.sort cmp arr;
        runs := of_array pager arr :: !runs;
        chunk := [];
        chunk_len := 0
      end
    in
    let rec read_phase () =
      match read_next input with
      | Some record ->
          chunk := record :: !chunk;
          incr chunk_len;
          if !chunk_len = mem_records then flush_chunk ();
          read_phase ()
      | None -> flush_chunk ()
    in
    Trace.with_span "extsort.run_formation"
      ~args:[ ("records", Json.Int t.count) ]
      (fun () ->
        Metrics.add m_records_sorted t.count;
        read_phase ());
    (* Phase 2: k-way merges with k input buffers + 1 output buffer. *)
    let fan_in = max 2 ((mem_records / per) - 1) in
    let rec merge_phase runs =
      match runs with
      | [] -> of_array pager [||]
      | [ single ] -> single
      | _ ->
          let rec group acc current n = function
            | [] -> List.rev (if current = [] then acc else merge_runs pager cmp current :: acc)
            | r :: rest ->
                if n = fan_in then group (merge_runs pager cmp current :: acc) [ r ] 1 rest
                else group acc (r :: current) (n + 1) rest
          in
          merge_phase (group [] [] 0 runs)
    in
    merge_phase (List.rev !runs)
end
