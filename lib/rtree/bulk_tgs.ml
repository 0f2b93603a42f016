(* Top-down Greedy Split bulk loading (García, López, Leutenegger) —
   the strongest query-time baseline in the paper.

   To build a node over n rectangles, the set is repeatedly bisected
   until it falls apart into at most B groups of [unit] rectangles each,
   where [unit] is the largest power of B below n (footnote 1 of the
   paper: subtree sizes are rounded to powers of B, so one node per
   level, including the root, may be underfull).  Each bisection
   considers the four orderings by xmin, ymin, xmax and ymax and every
   cut at a multiple of [unit], and greedily picks the cut minimizing the
   sum of the two resulting bounding-box areas.  Every child is built to
   the same target height so all leaves share a level; a group smaller
   than its sibling subtrees becomes a thin chain of single-child
   nodes. *)

module Rect = Prt_geom.Rect
module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager

(* Exact integer power; heights are small so overflow is not a concern
   at realistic B and n. *)
let pow_int base e =
  let rec go acc e = if e = 0 then acc else go (acc * base) (e - 1) in
  go 1 e

let height_for ~cap n =
  let rec go h reach = if reach >= n then h else go (h + 1) (reach * cap) in
  go 1 cap

(* Bounding boxes of the ordered prefixes/suffixes at cut positions
   [unit, 2*unit, ...]: one O(n) sweep each. *)
let cut_costs ~unit sorted =
  let n = Array.length sorted in
  let ncuts = (n - 1) / unit in
  let prefix = Array.make ncuts (Entry.rect sorted.(0)) in
  let acc = ref (Entry.rect sorted.(0)) in
  for i = 1 to (ncuts * unit) - 1 do
    acc := Rect.union !acc (Entry.rect sorted.(i));
    if (i + 1) mod unit = 0 then prefix.((i + 1) / unit - 1) <- !acc
  done;
  let suffix = Array.make ncuts (Entry.rect sorted.(n - 1)) in
  let acc = ref (Entry.rect sorted.(n - 1)) in
  for i = n - 2 downto unit do
    acc := Rect.union !acc (Entry.rect sorted.(i));
    if i mod unit = 0 && i / unit <= ncuts then suffix.((i / unit) - 1) <- !acc
  done;
  (prefix, suffix)

(* Greedily bisect [set] into groups of at most [unit] entries. *)
let rec partition ~unit set groups =
  let n = Array.length set in
  if n <= unit then set :: groups
  else begin
    let best = ref None in
    for dim = 0 to 3 do
      let sorted = Array.copy set in
      Array.sort (Entry.compare_dim dim) sorted;
      let prefix, suffix = cut_costs ~unit sorted in
      Array.iteri
        (fun c pre ->
          let cost = Rect.area pre +. Rect.area suffix.(c) in
          match !best with
          | Some (best_cost, _, _) when best_cost <= cost -> ()
          | _ -> best := Some (cost, sorted, (c + 1) * unit))
        prefix
    done;
    match !best with
    | None -> assert false (* n > unit implies at least one cut *)
    | Some (_, sorted, cut) ->
        let left = Array.sub sorted 0 cut in
        let right = Array.sub sorted cut (n - cut) in
        partition ~unit left (partition ~unit right groups)
  end

let load pool entries =
  Prt_obs.Trace.with_span "tgs.build"
    ~args:[ ("n", Prt_obs.Json.Int (Array.length entries)) ]
  @@ fun () ->
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let cap = Node.capacity ~page_size in
  if Array.length entries = 0 then Rtree.create_empty pool
  else begin
    let write kind node_entries =
      let node = Node.make kind node_entries in
      let id = Buffer_pool.alloc pool in
      Buffer_pool.write pool id (Node.encode ~page_size node);
      Entry.make (Node.mbr node) id
    in
    (* Build a subtree of exactly [height] levels over [set]. *)
    let rec build set ~height =
      if height = 1 then write Node.Leaf set
      else begin
        let unit = pow_int cap (height - 1) in
        let groups = partition ~unit set [] in
        let children = List.map (fun g -> build g ~height:(height - 1)) groups in
        write Node.Internal (Array.of_list children)
      end
    in
    let height = height_for ~cap (Array.length entries) in
    let root = build entries ~height in
    Rtree.of_root ~pool ~root:(Entry.id root) ~height ~count:(Array.length entries)
  end
