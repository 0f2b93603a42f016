(* Sort-Tile-Recursive bulk loading (Leutenegger, López, Edgington).

   Not one of the paper's measured baselines, but the most widely
   deployed packing heuristic in practice; included as an extra
   comparison point for the benches and as a differently-shaped tree for
   the test suite.  Each level is ordered by vertical slabs of the
   x-sorted sequence, each slab sorted by y — giving roughly square
   tiles of B rectangles. *)

module Rect = Prt_geom.Rect

let compare_center_x a b =
  let ax, _ = Rect.center (Entry.rect a) and bx, _ = Rect.center (Entry.rect b) in
  let c = Float.compare ax bx in
  if c <> 0 then c else Entry.compare_dim 0 a b

let compare_center_y a b =
  let _, ay = Rect.center (Entry.rect a) and _, by = Rect.center (Entry.rect b) in
  let c = Float.compare ay by in
  if c <> 0 then c else Entry.compare_dim 1 a b

let order ~capacity entries =
  let n = Array.length entries in
  if n > capacity then begin
    Array.sort compare_center_x entries;
    let nleaves = (n + capacity - 1) / capacity in
    let slabs = int_of_float (Float.ceil (sqrt (float_of_int nleaves))) in
    let per_slab = slabs * capacity in
    let i = ref 0 in
    while !i < n do
      let len = min per_slab (n - !i) in
      let slab = Array.sub entries !i len in
      Array.sort compare_center_y slab;
      Array.blit slab 0 entries !i len;
      i := !i + len
    done
  end

let load pool entries =
  Prt_obs.Trace.with_span "str.load"
    ~args:[ ("n", Prt_obs.Json.Int (Array.length entries)) ]
    (fun () ->
      let page_size = Prt_storage.Pager.page_size (Prt_storage.Buffer_pool.pager pool) in
      let capacity = Node.capacity ~page_size in
      Pack.build_levelwise pool ~order:(order ~capacity) entries)
