(* The paged R-tree: a handle over pages in a buffer pool, with the
   window-query descent engine ([Audit] checks its invariants).

   The tree itself is bulk-loading-agnostic — every loader (packed
   Hilbert, 4-D Hilbert, STR, TGS, PR) produces this same structure, and
   the dynamic update algorithms operate on it.  Queries count the nodes
   they visit per level; the paper's headline query metric ("number of
   I/Os with all internal nodes cached") is exactly [leaf_visited]. *)

module Rect = Prt_geom.Rect
module Hyperrect = Prt_geom.Hyperrect
module Pager = Prt_storage.Pager
module Page = Prt_storage.Page
module Buffer_pool = Prt_storage.Buffer_pool
module Shard_cache = Prt_storage.Shard_cache
module Quarantine = Prt_storage.Quarantine
module View = Prt_storage.View
module Mmap_pager = Prt_storage.Mmap_pager
module Deadline = Prt_util.Deadline

(* Where the descent reads its pages from (see the engine below). *)
type source =
  | Pool
  | Shared of bytes Shard_cache.t option
  | Mapped of Mmap_pager.t

type t = {
  pool : Buffer_pool.t;
  mutable root : int;
  mutable height : int; (* 1 = the root is a leaf *)
  mutable count : int;  (* data entries stored *)
  mutable mapped : source;
      (* [Mapped mm] while the mmap read backend is attached, [Pool]
         otherwise — held here so choosing it allocates nothing *)
}

type query_stats = {
  mutable internal_visited : int;
  mutable leaf_visited : int;
  mutable matched : int;
  mutable skipped_subtrees : int;
  mutable skipped_pages : int list;
  mutable timed_out : bool;
}

let fresh_stats () =
  {
    internal_visited = 0;
    leaf_visited = 0;
    matched = 0;
    skipped_subtrees = 0;
    skipped_pages = [];
    timed_out = false;
  }

let nodes_visited s = s.internal_visited + s.leaf_visited

(* Accumulate one component's descent into a combined record — the
   multi-component fan-out (Lsm, scatter-gather) merges per-component
   stats with this, then derives one honest [completeness] label: a
   timeout or skip anywhere taints the combined answer. *)
let merge_stats dst src =
  dst.internal_visited <- dst.internal_visited + src.internal_visited;
  dst.leaf_visited <- dst.leaf_visited + src.leaf_visited;
  dst.matched <- dst.matched + src.matched;
  dst.skipped_subtrees <- dst.skipped_subtrees + src.skipped_subtrees;
  dst.skipped_pages <- List.rev_append src.skipped_pages dst.skipped_pages;
  dst.timed_out <- dst.timed_out || src.timed_out

(* The completeness contract: partiality is never silent.  A query that
   skipped anything (quarantined page, fresh damage, deadline) says so
   here, and the skipped page ids say exactly where the hole is. *)
type completeness =
  | Complete
  | Partial of { skipped_pages : int list; skipped_subtrees : int }
  | Timed_out of { skipped_pages : int list; skipped_subtrees : int }

let completeness s =
  let skipped_pages = List.sort_uniq Int.compare s.skipped_pages in
  if s.timed_out then Timed_out { skipped_pages; skipped_subtrees = s.skipped_subtrees }
  else if s.skipped_subtrees > 0 then
    Partial { skipped_pages; skipped_subtrees = s.skipped_subtrees }
  else Complete

let complete s = completeness s = Complete

let pp_completeness ppf = function
  | Complete -> Fmt.string ppf "complete"
  | Partial { skipped_pages; skipped_subtrees } ->
      Fmt.pf ppf "partial (%d subtree%s skipped; pages %a)" skipped_subtrees
        (if skipped_subtrees = 1 then "" else "s")
        (Fmt.list ~sep:Fmt.comma Fmt.int) skipped_pages
  | Timed_out { skipped_pages; skipped_subtrees } ->
      Fmt.pf ppf "timed-out (%d subtree%s skipped%a)" skipped_subtrees
        (if skipped_subtrees = 1 then "" else "s")
        (fun ppf -> function
          | [] -> ()
          | ps -> Fmt.pf ppf "; pages %a" (Fmt.list ~sep:Fmt.comma Fmt.int) ps)
        skipped_pages

let pool t = t.pool
let pager t = Buffer_pool.pager t.pool
let root t = t.root
let height t = t.height
let count t = t.count
let page_size t = Pager.page_size (pager t)
let capacity t = Node.capacity ~page_size:(page_size t)

let set_root t ~root ~height =
  t.root <- root;
  t.height <- height

let set_count t count = t.count <- count

(* A page that reads but does not decode (a bad kind byte, a count past
   the capacity, a NaN box) is as corrupt as a torn one, and named so. *)
let read_node t id =
  let page = Buffer_pool.read t.pool id in
  try Node.decode page
  with Invalid_argument reason ->
    raise (Pager.Corrupt_page (Printf.sprintf "page %d does not decode: %s" id reason))

let free_node t id = Buffer_pool.free t.pool id

let write_node t id node =
  Buffer_pool.write t.pool id (Node.encode ~page_size:(page_size t) node)

let alloc_node t node =
  let id = Buffer_pool.alloc t.pool in
  write_node t id node;
  id

let create_empty pool =
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let root = Buffer_pool.alloc pool in
  Buffer_pool.write pool root (Node.encode ~page_size (Node.make Node.Leaf [||]));
  { pool; root; height = 1; count = 0; mapped = Pool }

let of_root ~pool ~root ~height ~count = { pool; root; height; count; mapped = Pool }

let set_mmap t mm = t.mapped <- (match mm with Some mm -> Mapped mm | None -> Pool)

(* Query metrics.  The registry stripes per domain, so these are ticked
   from whichever domain ran the descent — the single-domain path here
   and every [Qexec] worker share the same counters and the same
   recording helper, which is what makes multicore totals comparable to
   a sequential run.  [query.leaf_visits]/[query.internal_visits] count
   logical node reads of the descent (identical across execution modes
   for the same tree and windows, unlike physical pager reads, which
   depend on cache state). *)
let m_degraded = Prt_obs.Metrics.counter "resilience.queries_degraded"
let m_timed_out = Prt_obs.Metrics.counter "resilience.queries_timed_out"
let m_leaf_visits = Prt_obs.Metrics.counter "query.leaf_visits"
let m_internal_visits = Prt_obs.Metrics.counter "query.internal_visits"
let m_matched = Prt_obs.Metrics.counter "query.matched"
let m_latency = Prt_obs.Metrics.histogram "query.latency_us"

let record_query_stats ?latency_us stats =
  Prt_obs.Metrics.add m_leaf_visits stats.leaf_visited;
  Prt_obs.Metrics.add m_internal_visits stats.internal_visited;
  Prt_obs.Metrics.add m_matched stats.matched;
  (match latency_us with
  | Some us -> Prt_obs.Metrics.observe m_latency us
  | None -> ());
  if stats.timed_out then Prt_obs.Metrics.tick m_timed_out;
  if stats.skipped_subtrees > 0 || stats.timed_out then Prt_obs.Metrics.tick m_degraded

(* A pinned generation's tree, as produced by [Index_file.snapshot_view]:
   which committed generation to read pages at, and the root/height of
   that generation's tree (the live [t.root]/[t.height] may already
   belong to a newer commit). *)
type snapshot_view = { sv_gen : int; sv_root : int; sv_height : int }

let snapshot_gen = function Some sv -> sv.sv_gen | None -> 0

(* --- the descent engine ---

   Every query over {!Node} pages runs this one explicit-stack preorder
   descent: the window forms, {!Query}'s forms, {!Qexec}'s workers,
   [query_profile], and the d-dimensional tree's window query
   ([descend_box], for [Prt_ndtree.Rtree_nd]).  It takes a page source
   and a policy.

   The source is where pages come from:
   - [Pool]: the live tree through [Buffer_pool.read];
   - [Shared cache]: a pinned generation through [Pager.read_shared
     ~gen], bypassing the single-domain pool — internal pages through
     the shard cache of page images when one is given;
   - [Mapped mm]: the shared file mapping, scanned in place.

   The policy is the query form, an optional quarantine and deadline, a
   per-level visit counter (profiles) and a stop at the first hit
   ([Query.exists]).

   The stack lives in the hits buffer and holds (page id, depth) pairs;
   it grows only when a node pushes past its end.  Children are pushed
   in reverse entry order, so pages pop in exactly the recursive
   preorder: visit counts and result order do not depend on the source.
   A page holds its entries in page order (ascending [xmin], see
   {!Node}), so results come out in page order within each leaf — not
   in the order a loader built the leaf — and each kernel first
   binary-searches the entry where its scan can stop (the cut-off,
   below).  Which entries pass does not depend on their order, so the
   cut-off changes no visit count and no answer set.
   Under a snapshot, leaf vs internal is decided by depth against the
   pinned height (the kind byte describes the *live* page, which may
   have been reallocated into another role); on the live tree by the
   kind byte.

   The hits buffer carries the dimension d of the entries it collects.
   A 2-D buffer runs the four 2-D kernels below; any other d runs one
   generic kernel over the same layout ({!Node}'s, 2d columns), once
   per node after one dispatch in [visit_image].  No d-D tree is ever
   mapped, so d-D descents run on the pool source only.

   Per node: one deadline check, then the quarantine skip, then the
   page.  A read raising [Corrupt_page]/[Io_error] quarantines the page
   and skips its subtree when a quarantine is given, and propagates
   otherwise (fail-stop: no silent wrong answers).  The catch is scoped
   to the page read alone, so a poisoned page fails only its own
   subtree.

   On the mapping, a page is scanned in place only if it lies in the
   mapped window, passes its CRC gate ([Mmap_pager.verified]) and — at
   a pinned generation — the version store holds no newer image of it;
   the store is probed again after the scan.  Because {!Pager} retains
   a pre-image *before* the physical overwrite lands, a second miss
   proves the scanned bytes were the committed image for the pinned
   generation; a hit means the scan may have raced the overwrite, so
   the node's hits or pushes are rolled back (hit count and stack
   pointer reset) and the node is redone from the retained image.  The
   scans only copy coordinates out — entries are built after the
   descent — so torn bytes cannot fail a scan before the re-probe.
   Every node the mapping does not serve goes through [read_shared
   ~gen] and counts one [Mmap_pager.fell_back]. *)

type form = Window | Enclosed | Covering

type policy = {
  form : form;
  quarantine : Quarantine.t option;
  deadline : Deadline.t;
  levels : int array option;
  first_hit : bool;
}

let policy form =
  { form; quarantine = None; deadline = Deadline.none; levels = None; first_hit = false }

let plain_window = policy Window

(* Built once, so a query without quarantine or deadline allocates no
   policy. *)
let window_policy quarantine deadline =
  match (quarantine, deadline) with
  | None, None -> plain_window
  | _ -> { plain_window with quarantine; deadline = Option.value deadline ~default:Deadline.none }

(* The mapping when it is attached and either a generation is pinned or
   the pool is clean (a staged write would make the on-disk image
   stale); else a pinned generation through [read_shared]; else the
   live tree through the pool. *)
let page_source t snapshot =
  match t.mapped with
  | Mapped _ as s when snapshot_gen snapshot > 0 || Buffer_pool.is_clean t.pool -> s
  | _ -> if Option.is_none snapshot then Pool else Shared None

(* Hits are stored unboxed — 2d coordinates in a float array, the id
   in an int array — so recording one neither allocates nor runs the
   write barrier (storing a fresh [Entry.t] into a long-lived array
   costs both); [hits_get] builds the 2-D entry, with the same
   [Rect.make] as [Entry.read].  A buffer is made for one dimension
   [h_dims]: {!hits_make} for 2-D trees, [hits_create] (scratch buffers
   of [descend_box]) for the others. *)
type hits = {
  h_dims : int;
  mutable h_rects : Float.Array.t;
      (* lo_0 .. lo_{d-1}, hi_0 .. hi_{d-1} per hit: xmin, ymin, xmax, ymax in 2-D *)
  mutable h_ids : int array;
  mutable h_len : int;
  mutable h_stack : int array; (* pending (page id, depth) pairs *)
  h_bounds : Float.Array.t; (* the query form as 8d per-axis bounds, see [set_bounds] *)
  h_stats : query_stats; (* reused across queries; valid until the next one *)
}

let hits_create dims =
  {
    h_dims = dims;
    h_rects = Float.Array.create 0;
    h_ids = [||];
    h_len = 0;
    h_stack = Array.make 256 0;
    h_bounds = Float.Array.make (8 * dims) 0.0;
    h_stats = fresh_stats ();
  }

let hits_make () = hits_create 2

let hits_length h = h.h_len
let hits_stats h = h.h_stats

let hits_get h i =
  if i < 0 || i >= h.h_len then invalid_arg "Rtree.hits_get";
  let r = h.h_rects and k = 4 * i in
  Entry.make
    (Rect.make ~xmin:(Float.Array.unsafe_get r k)
       ~ymin:(Float.Array.unsafe_get r (k + 1))
       ~xmax:(Float.Array.unsafe_get r (k + 2))
       ~ymax:(Float.Array.unsafe_get r (k + 3)))
    (Array.unsafe_get h.h_ids i)

let hits_id h i =
  if i < 0 || i >= h.h_len then invalid_arg "Rtree.hits_id";
  Array.unsafe_get h.h_ids i

let hits_coords h = h.h_rects
let hits_clear h = h.h_len <- 0

let grow_hits h =
  let cap = max 16 (2 * h.h_len) and w = 2 * h.h_dims in
  let rects = Float.Array.create (w * cap) and ids = Array.make cap 0 in
  Float.Array.blit h.h_rects 0 rects 0 (w * h.h_len);
  Array.blit h.h_ids 0 ids 0 h.h_len;
  h.h_rects <- rects;
  h.h_ids <- ids

let[@inline] hit h xmin ymin xmax ymax id =
  if h.h_len = Array.length h.h_ids then grow_hits h;
  let k = 4 * h.h_len in
  Float.Array.unsafe_set h.h_rects k xmin;
  Float.Array.unsafe_set h.h_rects (k + 1) ymin;
  Float.Array.unsafe_set h.h_rects (k + 2) xmax;
  Float.Array.unsafe_set h.h_rects (k + 3) ymax;
  Array.unsafe_set h.h_ids h.h_len id;
  h.h_len <- h.h_len + 1;
  h.h_stats.matched <- h.h_stats.matched + 1

let reset_stats s =
  s.internal_visited <- 0;
  s.leaf_visited <- 0;
  s.matched <- 0;
  s.skipped_subtrees <- 0;
  s.skipped_pages <- [];
  s.timed_out <- false

let copy_stats s =
  {
    internal_visited = s.internal_visited;
    leaf_visited = s.leaf_visited;
    matched = s.matched;
    skipped_subtrees = s.skipped_subtrees;
    skipped_pages = s.skipped_pages;
    timed_out = s.timed_out;
  }

let skip_subtree s id =
  s.skipped_subtrees <- s.skipped_subtrees + 1;
  if not (List.mem id s.skipped_pages) then s.skipped_pages <- id :: s.skipped_pages

let poison pol s id reason =
  (match pol.quarantine with Some q -> Quarantine.add q id reason | None -> ());
  skip_subtree s id

(* Room for [n] more (page id, depth) pairs above [sp]. *)
let reserve h sp n =
  if sp + (2 * n) > Array.length h.h_stack then begin
    let grown = Array.make (max (2 * Array.length h.h_stack) (sp + (2 * n))) 0 in
    Array.blit h.h_stack 0 grown 0 sp;
    h.h_stack <- grown
  end

let count_visit pol s ~leaf depth =
  if leaf then s.leaf_visited <- s.leaf_visited + 1
  else s.internal_visited <- s.internal_visited + 1;
  match pol.levels with Some a -> a.(depth - 1) <- a.(depth - 1) + 1 | None -> ()

(* The query form, compiled once per descent into per-axis bounds: an
   entry's [lo, hi] on an axis passes when
   [lo <= b.(k) && b.(k+1) <= hi && b.(k+2) <= lo && hi <= b.(k+3)],
   so the kernels test every form the same way, with no dispatch per
   entry.  Infinities switch a comparison off, and a NaN coordinate
   fails every comparison, as it does in [Rect]'s tests, so each form
   matches its [Rect] counterpart bit for bit: [Window] is
   [Rect.intersects], [Enclosed] reports [Rect.contains window r],
   [Covering] is [Rect.contains r window] (stabbing is covering a
   point, since [Rect.contains_point r x y] equals
   [Rect.contains r (Rect.point x y)]).  The report test sits at 0 (x)
   and 4 (y), the child test at 8 and 12.  The window bounds are read
   by direct field access on the all-float record ([w.Rect.xmax]), not
   through the [Rect.xmax] accessors: without flambda a cross-module
   accessor call boxes its float return.

   In d dimensions ([set_box_bounds], the window form) axis [a]'s
   report test sits at [4a] and its child test at [4d + 4a]: at d = 2
   the same places. *)
let[@inline] set_axis b k lo_max hi_min lo_min hi_max =
  Float.Array.unsafe_set b k lo_max;
  Float.Array.unsafe_set b (k + 1) hi_min;
  Float.Array.unsafe_set b (k + 2) lo_min;
  Float.Array.unsafe_set b (k + 3) hi_max

let set_bounds b form w =
  (match form with
  | Window | Enclosed ->
      set_axis b 8 w.Rect.xmax w.Rect.xmin neg_infinity infinity;
      set_axis b 12 w.Rect.ymax w.Rect.ymin neg_infinity infinity
  | Covering ->
      set_axis b 8 w.Rect.xmin w.Rect.xmax neg_infinity infinity;
      set_axis b 12 w.Rect.ymin w.Rect.ymax neg_infinity infinity);
  match form with
  | Window | Covering -> Float.Array.blit b 8 b 0 8
  | Enclosed ->
      set_axis b 0 infinity neg_infinity w.Rect.xmin w.Rect.xmax;
      set_axis b 4 infinity neg_infinity w.Rect.ymin w.Rect.ymax

let set_box_bounds b w =
  let d = Hyperrect.dims w in
  for a = 0 to d - 1 do
    set_axis b (4 * (d + a)) (Hyperrect.hi w a) (Hyperrect.lo w a) neg_infinity infinity
  done;
  Float.Array.blit b (4 * d) b 0 (4 * d)

let[@inline] get_f64 buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)

(* The kernels read a node page's columns in place ({!Node}'s format
   v4): entry [i]'s [xmin], [ymin], [xmax] and [ymax] sit one column
   apart, then its id in the int32 column.  Over a page image the
   stride is [col = 8 * capacity] bytes; over the float64 mapping it is
   [cap = capacity] words, and a coordinate is one inline
   [Bigarray.Array1.unsafe_get] — no call, no box.  Each test
   short-circuits, [xmin] first, and loads a coordinate only when it
   gets to it. *)

let[@inline] image_passes b k buf off col =
  let xlo = get_f64 buf off in
  xlo <= Float.Array.unsafe_get b k
  &&
  let xhi = get_f64 buf (off + (2 * col)) in
  Float.Array.unsafe_get b (k + 1) <= xhi
  && Float.Array.unsafe_get b (k + 2) <= xlo
  && xhi <= Float.Array.unsafe_get b (k + 3)
  &&
  let ylo = get_f64 buf (off + col) in
  ylo <= Float.Array.unsafe_get b (k + 4)
  &&
  let yhi = get_f64 buf (off + (3 * col)) in
  Float.Array.unsafe_get b (k + 5) <= yhi
  && Float.Array.unsafe_get b (k + 6) <= ylo
  && yhi <= Float.Array.unsafe_get b (k + 7)

let[@inline] mapped_passes b k (m : View.map) w cap =
  let xlo = Bigarray.Array1.unsafe_get m w in
  xlo <= Float.Array.unsafe_get b k
  &&
  let xhi = Bigarray.Array1.unsafe_get m (w + (2 * cap)) in
  Float.Array.unsafe_get b (k + 1) <= xhi
  && Float.Array.unsafe_get b (k + 2) <= xlo
  && xhi <= Float.Array.unsafe_get b (k + 3)
  &&
  let ylo = Bigarray.Array1.unsafe_get m (w + cap) in
  ylo <= Float.Array.unsafe_get b (k + 4)
  &&
  let yhi = Bigarray.Array1.unsafe_get m (w + (3 * cap)) in
  Float.Array.unsafe_get b (k + 5) <= yhi
  && Float.Array.unsafe_get b (k + 6) <= ylo
  && yhi <= Float.Array.unsafe_get b (k + 7)

(* The cut-off.  A page's entries are in page order ({!Node}: ascending
   [xmin], NaN last), so [xmin <= b.(k)] — the first comparison of every
   test — holds on a prefix of the page: an entry past that prefix
   cannot pass, and neither can any entry after it.  [k] is 0 for a
   leaf report and 8 (4d in d dimensions) for a child push.  The binary
   search returns the end of the prefix within [lo, hi): an entry index
   over a page image, a word over the mapping.  The bound is read in place from the
   bounds array, as the tests read it: a float argument would be boxed
   on every node. *)

let rec cut_image b k buf lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if get_f64 buf (8 * mid) <= Float.Array.unsafe_get b k then cut_image b k buf (mid + 1) hi
    else cut_image b k buf lo mid

let rec cut_mapped b k (m : View.map) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Bigarray.Array1.unsafe_get m mid <= Float.Array.unsafe_get b k then
      cut_mapped b k m (mid + 1) hi
    else cut_mapped b k m lo mid

(* The four kernels: leaf scan and child push, over a page image and
   over the mapping.  They are top-level recursive functions, not local
   closures — a local [let rec] capturing its environment would
   allocate a closure on every node.  [off] (bytes) or [w] (words) walks
   the [xmin] column, and on the mapping [id] walks the id column beside
   it; a leaf scan records hits in [h], a child push lands (page id,
   depth) pairs on the stack from the last entry down to [first], so the
   first entry pops first.  Each runs over the entries before the
   cut-off only.  The caller reserves the stack room. *)

let rec scan_image h buf off stop col =
  if off < stop then begin
    if image_passes h.h_bounds 0 buf off col then
      hit h (get_f64 buf off)
        (get_f64 buf (off + col))
        (get_f64 buf (off + (2 * col)))
        (get_f64 buf (off + (3 * col)))
        (Page.get_i32 buf ((4 * col) + (off lsr 1)));
    scan_image h buf (off + 8) stop col
  end

let rec push_image h buf off first col depth sp =
  if off < first then sp
  else if image_passes h.h_bounds 8 buf off col then begin
    Array.unsafe_set h.h_stack sp (Page.get_i32 buf ((4 * col) + (off lsr 1)));
    Array.unsafe_set h.h_stack (sp + 1) depth;
    push_image h buf (off - 8) first col depth (sp + 2)
  end
  else push_image h buf (off - 8) first col depth sp

let rec scan_mapped h (m : View.map) w stop cap id =
  if w < stop then begin
    if mapped_passes h.h_bounds 0 m w cap then
      hit h (Bigarray.Array1.unsafe_get m w)
        (Bigarray.Array1.unsafe_get m (w + cap))
        (Bigarray.Array1.unsafe_get m (w + (2 * cap)))
        (Bigarray.Array1.unsafe_get m (w + (3 * cap)))
        (View.get_i32 m id);
    scan_mapped h m (w + 1) stop cap (id + 4)
  end

let rec push_mapped h m w first cap id depth sp =
  if w < first then sp
  else if mapped_passes h.h_bounds 8 m w cap then begin
    Array.unsafe_set h.h_stack sp (View.get_i32 m id);
    Array.unsafe_set h.h_stack (sp + 1) depth;
    push_mapped h m (w - 1) first cap (id - 4) depth (sp + 2)
  end
  else push_mapped h m (w - 1) first cap (id - 4) depth sp

(* The generic kernel, for a page of d-dimensional entries (d =
   [h.h_dims], any d but 2): the same scan and push over 2d columns.
   [image_passes_nd] tests axes [a] to [d - 1] of the entry at [off],
   lo then hi of each, short-circuiting like [image_passes]; the axis is
   an int argument and the bounds are read in place, so the recursion
   boxes nothing — no closure, no functor, no float argument per entry.
   The id column starts at [2d * col]. *)

let rec image_passes_nd b k buf off col d a =
  a >= d
  ||
  let lo = get_f64 buf (off + (a * col)) in
  lo <= Float.Array.unsafe_get b (k + (4 * a))
  && (let hi = get_f64 buf (off + ((d + a) * col)) in
      Float.Array.unsafe_get b (k + (4 * a) + 1) <= hi
      && Float.Array.unsafe_get b (k + (4 * a) + 2) <= lo
      && hi <= Float.Array.unsafe_get b (k + (4 * a) + 3))
  && image_passes_nd b k buf off col d (a + 1)

let hit_nd h buf off col =
  if h.h_len = Array.length h.h_ids then grow_hits h;
  let w = 2 * h.h_dims in
  let k = w * h.h_len in
  for c = 0 to w - 1 do
    Float.Array.unsafe_set h.h_rects (k + c) (get_f64 buf (off + (c * col)))
  done;
  Array.unsafe_set h.h_ids h.h_len (Page.get_i32 buf ((w * col) + (off lsr 1)));
  h.h_len <- h.h_len + 1;
  h.h_stats.matched <- h.h_stats.matched + 1

let rec scan_image_nd h buf off stop col =
  if off < stop then begin
    if image_passes_nd h.h_bounds 0 buf off col h.h_dims 0 then hit_nd h buf off col;
    scan_image_nd h buf (off + 8) stop col
  end

let rec push_image_nd h buf off first col depth sp =
  let d = h.h_dims in
  if off < first then sp
  else if image_passes_nd h.h_bounds (4 * d) buf off col d 0 then begin
    Array.unsafe_set h.h_stack sp (Page.get_i32 buf ((2 * d * col) + (off lsr 1)));
    Array.unsafe_set h.h_stack (sp + 1) depth;
    push_image_nd h buf (off - 8) first col depth (sp + 2)
  end
  else push_image_nd h buf (off - 8) first col depth sp

let visit_image_nd pol h buf depth sp =
  let dims = h.h_dims in
  let leaf = Node.page_kind_nd ~dims buf = Node.Leaf in
  let cap = Node.capacity_nd ~page_size:(Bytes.length buf) ~dims
  and n = Node.page_length_nd ~dims buf in
  if n > cap then invalid_arg "Rtree: node count exceeds the page capacity";
  let col = 8 * cap in
  count_visit pol h.h_stats ~leaf depth;
  if leaf then begin
    scan_image_nd h buf 0 (8 * cut_image h.h_bounds 0 buf 0 n) col;
    sp
  end
  else begin
    let stop = cut_image h.h_bounds (4 * dims) buf 0 n in
    reserve h sp stop;
    push_image_nd h buf (8 * (stop - 1)) 0 col (depth + 1) sp
  end

(* One node from its page image; returns the new stack pointer.  The
   one dispatch on the dimension: the 2-D kernels, or the generic one
   (d-D trees are live and on the pool only, so [leaf_depth] is 0). *)
let visit_image pol h buf ~leaf_depth depth sp =
  if h.h_dims <> 2 then visit_image_nd pol h buf depth sp
  else begin
    let leaf = if leaf_depth > 0 then depth = leaf_depth else Node.page_kind buf = Node.Leaf in
    let cap = Node.capacity ~page_size:(Bytes.length buf) and n = Node.page_length buf in
    (* A verified image whose count overruns its columns is corrupt:
       fail like [Node.decode] rather than scan the next column. *)
    if n > cap then invalid_arg "Rtree: node count exceeds the page capacity";
    let col = 8 * cap in
    count_visit pol h.h_stats ~leaf depth;
    if leaf then begin
      scan_image h buf 0 (8 * cut_image h.h_bounds 0 buf 0 n) col;
      sp
    end
    else begin
      let stop = cut_image h.h_bounds 8 buf 0 n in
      reserve h sp stop;
      push_image h buf (8 * (stop - 1)) 0 col (depth + 1) sp
    end
  end

let read_image t src ~gen ~leaf_depth id depth =
  match src with
  | Pool -> Buffer_pool.read t.pool id
  | Shared (Some cache) when depth < leaf_depth ->
      Shard_cache.find_or_add cache ~gen id (fun () -> Pager.read_shared ~gen (pager t) id)
  | Shared _ | Mapped _ -> Pager.read_shared ~gen (pager t) id

let fetch_and_visit t src pol h ~gen ~leaf_depth id depth sp =
  match read_image t src ~gen ~leaf_depth id depth with
  | buf -> visit_image pol h buf ~leaf_depth depth sp
  | exception Pager.Corrupt_page _ when Option.is_some pol.quarantine ->
      poison pol h.h_stats id Quarantine.Corrupt;
      sp
  | exception Pager.Io_error _ when Option.is_some pol.quarantine ->
      poison pol h.h_stats id Quarantine.Io_failed;
      sp

(* Was page [id] overwritten after the pinned generation [gen]? *)
let overwritten t ~gen id = gen > 0 && Option.is_some (Pager.version_probe (pager t) id ~gen)

let visit_mapped t mm pol h ~gen ~leaf_depth id depth sp =
  let mw = Mmap_pager.window mm in
  if
    id < 0
    || id >= Mmap_pager.pages mw
    || overwritten t ~gen id
    || not (Mmap_pager.verified mm mw id)
  then begin
    Mmap_pager.fell_back mm;
    fetch_and_visit t (Shared None) pol h ~gen ~leaf_depth id depth sp
  end
  else begin
    Mmap_pager.served mm;
    let m = Mmap_pager.map mw in
    let page_size = Mmap_pager.page_size mm in
    let base = id * page_size in
    let leaf =
      if leaf_depth > 0 then depth = leaf_depth else Node.map_kind m ~page_size ~base = Node.Leaf
    in
    let cap = Node.capacity ~page_size in
    (* A torn count must not walk the scan off the page. *)
    let n = min (Node.map_length m ~page_size ~base) cap in
    let w0 = base lsr 3 and ids = base + (32 * cap) in
    let hits0 = h.h_len and matched0 = h.h_stats.matched in
    let sp' =
      if leaf then begin
        scan_mapped h m w0 (cut_mapped h.h_bounds 0 m w0 (w0 + n)) cap ids;
        sp
      end
      else begin
        let stop = cut_mapped h.h_bounds 8 m w0 (w0 + n) - w0 in
        reserve h sp stop;
        push_mapped h m (w0 + stop - 1) w0 cap (ids + (4 * (stop - 1))) (depth + 1) sp
      end
    in
    if overwritten t ~gen id then begin
      h.h_len <- hits0;
      h.h_stats.matched <- matched0;
      Mmap_pager.fell_back mm;
      fetch_and_visit t (Shared None) pol h ~gen ~leaf_depth id depth sp
    end
    else begin
      count_visit pol h.h_stats ~leaf depth;
      sp'
    end
  end

(* The per-node gate every source shares: one deadline check, then the
   quarantine skip.  [false]: do not read the page. *)
let admit pol s id =
  if Deadline.expired pol.deadline then begin
    s.timed_out <- true;
    Prt_obs.Flight.point "resilience.deadline_expired" ~arg:id;
    false
  end
  else
    match pol.quarantine with
    | Some q when Quarantine.mem q id ->
        skip_subtree s id;
        false
    | _ -> true

let rec loop t src pol h ~gen ~leaf_depth sp =
  if sp > 0 && (not h.h_stats.timed_out) && not (pol.first_hit && h.h_len > 0) then begin
    let sp = sp - 2 in
    let id = Array.unsafe_get h.h_stack sp and depth = Array.unsafe_get h.h_stack (sp + 1) in
    let sp =
      if not (admit pol h.h_stats id) then sp
      else
        match src with
        | Mapped mm -> visit_mapped t mm pol h ~gen ~leaf_depth id depth sp
        | Pool | Shared _ -> fetch_and_visit t src pol h ~gen ~leaf_depth id depth sp
    in
    loop t src pol h ~gen ~leaf_depth sp
  end

let descend_into t src pol snapshot window ~into:h =
  hits_clear h;
  reset_stats h.h_stats;
  set_bounds h.h_bounds pol.form window;
  h.h_stack.(0) <- (match snapshot with Some sv -> sv.sv_root | None -> t.root);
  h.h_stack.(1) <- 1;
  let leaf_depth = match snapshot with Some sv -> sv.sv_height | None -> 0 in
  loop t src pol h ~gen:(snapshot_gen snapshot) ~leaf_depth 2

(* The callback forms: descend into a scratch buffer of this domain,
   and only then call [f] on the results.  Each nesting level has its
   own buffer, so a query that [f] runs on this domain descends into
   the next one and leaves the results being replayed alone.  A level's
   buffer is remade when a query of another dimension takes it. *)
type scratch = { mutable bufs : hits array; mutable depth : int }

let scratch_key = Domain.DLS.new_key (fun () -> { bufs = [||]; depth = 0 })

let scratch_hits s ~dims =
  let d = s.depth in
  if d = Array.length s.bufs then s.bufs <- Array.append s.bufs [| hits_create dims |]
  else if s.bufs.(d).h_dims <> dims then s.bufs.(d) <- hits_create dims;
  s.bufs.(d)

(* Call [f] on each result index of [h], the buffer of level [d], with
   the level taken; then the descent's statistics. *)
let replay s d h f =
  s.depth <- d + 1;
  Fun.protect
    ~finally:(fun () -> s.depth <- d)
    (fun () ->
      for i = 0 to h.h_len - 1 do
        f i
      done);
  copy_stats h.h_stats

let descend_iter t src pol snapshot window ~f =
  let s = Domain.DLS.get scratch_key in
  let d = s.depth in
  let h = scratch_hits s ~dims:2 in
  descend_into t src pol snapshot window ~into:h;
  replay s d h (fun i -> f (hits_get h i))

(* The d-dimensional window query: the live tree through the pool, into
   this domain's scratch buffer for the window's dimension. *)
let descend_box t window ~f =
  let s = Domain.DLS.get scratch_key in
  let d = s.depth in
  let h = scratch_hits s ~dims:(Hyperrect.dims window) in
  hits_clear h;
  reset_stats h.h_stats;
  set_box_bounds h.h_bounds window;
  h.h_stack.(0) <- t.root;
  h.h_stack.(1) <- 1;
  loop t Pool plain_window h ~gen:0 ~leaf_depth:0 2;
  replay s d h (f h)

(* Caller-supplied-buffer window query: results append into [into]
   and the descent statistics land in [hits_stats into] (both valid
   until the next query with the same buffer).  On the mmap backend's
   live path this is the allocation-free entry point: after warm-up (a
   first query sizes the stack and the hit array), a miss-only query
   allocates zero minor words. *)
let query_into_unrecorded ?quarantine ?deadline ?snapshot t window ~into =
  descend_into t (page_source t snapshot) (window_policy quarantine deadline) snapshot window ~into

let query_into ?quarantine ?deadline ?snapshot t window ~into =
  query_into_unrecorded ?quarantine ?deadline ?snapshot t window ~into;
  if Prt_obs.Metrics.collecting () then record_query_stats into.h_stats

let query_unrecorded ?quarantine ?deadline ?snapshot t window ~f =
  descend_iter t (page_source t snapshot) (window_policy quarantine deadline) snapshot window ~f

(* The recorded form: the same counters and latency histogram whichever
   domain runs the descent.  The wall clock is read only while
   collection is on — an uninstrumented query pays two atomic loads. *)
let query ?quarantine ?deadline ?snapshot t window ~f =
  if not (Prt_obs.Metrics.collecting ()) then
    query_unrecorded ?quarantine ?deadline ?snapshot t window ~f
  else begin
    let t0 = Unix.gettimeofday () in
    let stats = query_unrecorded ?quarantine ?deadline ?snapshot t window ~f in
    let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    record_query_stats ~latency_us stats;
    stats
  end

let query_list ?quarantine ?deadline ?snapshot t window =
  let acc = ref [] in
  let stats = query ?quarantine ?deadline ?snapshot t window ~f:(fun e -> acc := e :: !acc) in
  (List.rev !acc, stats)

let query_count ?quarantine ?deadline ?snapshot t window =
  query ?quarantine ?deadline ?snapshot t window ~f:(fun _ -> ())

(* Profiled window query: the engine on the source a plain query would
   use, with its per-level counter on, plus what the storage stack did
   on the tree's behalf (pager I/Os, pool hits and misses, mapped pages
   served and fallbacks) between entry and exit. *)

type profile = {
  pf_levels : int array; (* nodes visited per level; index 0 = root *)
  pf_internal : int;
  pf_leaves : int;
  pf_matched : int;
  pf_backend : string;
  pf_mapped : int;
  pf_fallbacks : int;
  pf_reads : int;
  pf_writes : int;
  pf_hits : int;
  pf_misses : int;
  pf_seconds : float;
}

let mapped_counters = function
  | Mapped mm -> Mmap_pager.counters mm
  | Pool | Shared _ ->
      { Mmap_pager.c_windows_served = 0; c_crc_skipped = 0; c_crc_verified = 0; c_fallbacks = 0 }

let query_profile t window ~f =
  Prt_obs.Trace.with_span "rtree.query" (fun () ->
      let levels = Array.make (max 1 t.height) 0 in
      let src = page_source t None in
      let before = Pager.snapshot (pager t) in
      let hits0 = Buffer_pool.hits t.pool and misses0 = Buffer_pool.misses t.pool in
      let mapped0 = mapped_counters src in
      let t0 = Unix.gettimeofday () in
      let stats = descend_iter t src { plain_window with levels = Some levels } None window ~f in
      let seconds = Unix.gettimeofday () -. t0 in
      let mapped1 = mapped_counters src in
      let d = Pager.diff ~before ~after:(Pager.snapshot (pager t)) in
      {
        pf_levels = levels;
        pf_internal = stats.internal_visited;
        pf_leaves = stats.leaf_visited;
        pf_matched = stats.matched;
        pf_backend = (match src with Mapped _ -> "mmap" | Pool | Shared _ -> "pool");
        pf_mapped = mapped1.c_windows_served - mapped0.c_windows_served;
        pf_fallbacks = mapped1.c_fallbacks - mapped0.c_fallbacks;
        pf_reads = d.Pager.s_reads;
        pf_writes = d.Pager.s_writes;
        pf_hits = Buffer_pool.hits t.pool - hits0;
        pf_misses = Buffer_pool.misses t.pool - misses0;
        pf_seconds = seconds;
      })

let pp_profile ppf p =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i n -> Format.fprintf ppf "level %d: %d node%s@," i n (if n = 1 then "" else "s"))
    p.pf_levels;
  Format.fprintf ppf "internal=%d leaves=%d matched=%d@," p.pf_internal p.pf_leaves p.pf_matched;
  Format.fprintf ppf "backend: %s  mapped=%d fallbacks=%d@," p.pf_backend p.pf_mapped
    p.pf_fallbacks;
  Format.fprintf ppf "pager: reads=%d writes=%d  pool: hits=%d misses=%d@," p.pf_reads p.pf_writes
    p.pf_hits p.pf_misses;
  Format.fprintf ppf "time: %.6fs@]" p.pf_seconds

let iter t ~f =
  let rec visit id =
    let node = read_node t id in
    match Node.kind node with
    | Node.Leaf -> Array.iter f (Node.entries node)
    | Node.Internal -> Array.iter (fun e -> visit (Entry.id e)) (Node.entries node)
  in
  visit t.root

let iter_nodes t ~f =
  let rec visit id depth =
    let node = read_node t id in
    f ~depth ~id node;
    match Node.kind node with
    | Node.Leaf -> ()
    | Node.Internal -> Array.iter (fun e -> visit (Entry.id e) (depth + 1)) (Node.entries node)
  in
  visit t.root 1

let mbr t =
  let node = read_node t t.root in
  if Node.length node = 0 then None else Some (Node.mbr node)

(* Debug rendering: one line per node, indented by depth, with page id,
   fanout and bounding box — small trees only (tests, troubleshooting). *)
let dump t ppf =
  let rec visit id depth =
    let node = read_node t id in
    let indent = String.make (2 * (depth - 1)) ' ' in
    let kind = match Node.kind node with Node.Leaf -> "leaf" | Node.Internal -> "node" in
    if Node.length node = 0 then Format.fprintf ppf "%s%s #%d (empty)@." indent kind id
    else
      Format.fprintf ppf "%s%s #%d [%d] %a@." indent kind id (Node.length node) Rect.pp
        (Node.mbr node);
    if Node.kind node = Node.Internal then
      Array.iter (fun e -> visit (Entry.id e) (depth + 1)) (Node.entries node)
  in
  visit t.root 1
