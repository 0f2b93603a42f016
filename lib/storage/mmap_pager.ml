(* Read-only mmap backend for query serving.

   The whole index file is mapped once, as a float64 bigarray
   ([Unix.map_file] → {!View.map}, advised MADV_RANDOM); query descent
   then tests rect predicates directly against the mapping — no
   syscall, no [shared_lock] mutex, no page copy, no decode.  Node pages
   (format v3 onwards) keep their coordinates in 8-byte-aligned
   columns, so the descent kernels load each one inline; every other
   field is cut out of its 64-bit word ({!View}).  One mapping of one
   kind serves every reader: a second, byte-typed mapping of the same
   file would add resident memory only to spare those few loads their
   word extraction.  All domains share the mapping: the
   kernel's page cache is the only buffer, and concurrent readers need
   no per-domain state.

   Integrity: a mapped page is CRC-verified once per (page, committed
   generation) and then trusted.  The memo is a byte-per-page bitmap
   swapped wholesale by the writer after every commit
   ({!refresh}), so verifications never outlive the bytes they
   vouched for.  Readers race on individual memo bytes without
   synchronization — a lost set merely re-verifies.

   Growth: when a commit extends the file past the mapped bytes, the
   writer installs a new window (map + page count, swapped as one
   atomic record).  A reader that cached the old window mid-descent is
   safe — the old mapping stays valid until its bigarray is GC'd — and
   serves pages beyond its cached bound through the pread path.

   Failure to map at all (empty file, a page size that is not a
   multiple of 8, a big-endian host, exotic platform) is not an error:
   {!attach} returns [None] and the caller stays on pread. *)

type window = { w_map : View.map; w_pages : int }

type crc_cache = {
  cgen : int;  (* committed generation these verifications are valid for *)
  bits : Bytes.t;  (* one byte per page: '\001' = CRC-verified, trusted *)
}

type t = {
  fd : Unix.file_descr;
  page_size : int;
  win : window Atomic.t;
  crc : crc_cache Atomic.t;
  windows_served : int Atomic.t;
  crc_skipped : int Atomic.t;
  crc_verified : int Atomic.t;
  fallbacks : int Atomic.t;
  mutable closed : bool;
}

type counters = {
  c_windows_served : int;
  c_crc_skipped : int;
  c_crc_verified : int;
  c_fallbacks : int;
}

(* Registry-level mirrors of the cold events (attach/remap/fallback);
   the per-window hot counters stay plain atomics so the serving path
   never touches the striped registry. *)
let m_attach = Prt_obs.Metrics.counter "mmap.attach"
let m_remap = Prt_obs.Metrics.counter "mmap.remap"
let m_fallback = Prt_obs.Metrics.counter "mmap.fallbacks"

(* The window is whole float64 words, so every page must start on a
   word; the words are read little-endian. *)
let mappable page_size = page_size land 7 = 0 && not Sys.big_endian

let map_window fd page_size =
  let size = (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
  let pages = Int64.to_int (Int64.div size (Int64.of_int page_size)) in
  if pages = 0 then None
  else
    let words = pages * page_size / 8 in
    let g =
      Unix.map_file fd Bigarray.float64 Bigarray.c_layout true [| words |]
    in
    let m = Bigarray.array1_of_genarray g in
    View.madvise_random m;
    Some { w_map = m; w_pages = pages }

let attach ~path ~page_size ~gen =
  (* The fd must be open read-write: [Unix.map_file ~shared:true] maps
     PROT_READ|PROT_WRITE so that writes through the ordinary pager fd
     stay visible in the mapping.  Nothing here ever stores through it. *)
  if not (mappable page_size) then None
  else
    match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
    | exception Unix.Unix_error _ -> None
    | fd -> (
        match map_window fd page_size with
        | None | (exception _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            None
        | Some w ->
            Prt_obs.Metrics.tick m_attach;
            Some
              {
                fd;
                page_size;
                win = Atomic.make w;
                crc = Atomic.make { cgen = gen; bits = Bytes.make w.w_pages '\000' };
                windows_served = Atomic.make 0;
                crc_skipped = Atomic.make 0;
                crc_verified = Atomic.make 0;
                fallbacks = Atomic.make 0;
                closed = false;
              })

let page_size t = t.page_size
let window t = Atomic.get t.win
let map w = w.w_map
let pages w = w.w_pages

(* Writer-side, after a commit is durable: extend the window if the
   file grew, then drop every memoized verification by installing a
   fresh cache tagged with the new committed generation.  Order
   matters: the window must be current before the cache says any page
   under it is unverified-but-verifiable. *)
let refresh t ~gen =
  if not t.closed then begin
    (match map_window t.fd t.page_size with
    | Some w when w.w_pages > (Atomic.get t.win).w_pages ->
        Atomic.set t.win w;
        Prt_obs.Metrics.tick m_remap
    | _ -> ());
    let pages = (Atomic.get t.win).w_pages in
    Atomic.set t.crc { cgen = gen; bits = Bytes.make pages '\000' }

  end

let cache_gen t = (Atomic.get t.crc).cgen

(* The hot-path integrity gate: [true] means the mapped bytes of [id]
   may be trusted, [false] means fall back to pread for this page.
   Allocation-free: one atomic load, one byte test, at worst one CRC
   sweep of the page. *)
let verified t w id =
  let c = Atomic.get t.crc in
  if id < Bytes.length c.bits && Bytes.unsafe_get c.bits id = '\001' then begin
    Atomic.incr t.crc_skipped;
    true
  end
  else if
    View.page_valid w.w_map ~base:(id * t.page_size) ~page_size:t.page_size
  then begin
    Atomic.incr t.crc_verified;
    if id < Bytes.length c.bits then Bytes.unsafe_set c.bits id '\001';
    true
  end
  else false

let served t = Atomic.incr t.windows_served

let fell_back t =
  Atomic.incr t.fallbacks;
  Prt_obs.Metrics.tick m_fallback

let counters t =
  {
    c_windows_served = Atomic.get t.windows_served;
    c_crc_skipped = Atomic.get t.crc_skipped;
    c_crc_verified = Atomic.get t.crc_verified;
    c_fallbacks = Atomic.get t.fallbacks;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* The mapping itself is unmapped when the bigarray is collected;
       closing the fd now is safe (mmap holds its own reference). *)
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
