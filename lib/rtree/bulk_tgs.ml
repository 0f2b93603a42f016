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
   nodes.  A cut is chosen from the bounding boxes of each ordering's
   consecutive [unit]-entry runs ([best_cut]); the external loader
   ([Ext_load.load_tgs]) chooses its cuts with the same function. *)

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

let run_boxes ~unit n iter =
  let runs = Array.make ((n + unit - 1) / unit) (Rect.point 0.0 0.0) and i = ref 0 in
  iter (fun e ->
      let s = !i / unit in
      runs.(s) <- (if !i mod unit = 0 then Entry.rect e else Rect.union runs.(s) (Entry.rect e));
      incr i);
  runs

(* The two sides of every cut are unions of runs, one O(n / unit) sweep
   each way per ordering.  A strictly cheaper cut replaces the best, so
   the first of equal costs wins, in ordering then position order. *)
let best_cut ~unit orderings =
  let best = ref None in
  Array.iteri
    (fun dim runs ->
      let m = Array.length runs in
      let prefix = Array.copy runs and suffix = Array.copy runs in
      for i = 1 to m - 1 do
        prefix.(i) <- Rect.union prefix.(i - 1) runs.(i)
      done;
      for i = m - 2 downto 0 do
        suffix.(i) <- Rect.union suffix.(i + 1) runs.(i)
      done;
      for c = 1 to m - 1 do
        let cost = Rect.area prefix.(c - 1) +. Rect.area suffix.(c) in
        match !best with
        | Some (best_cost, _, _) when best_cost <= cost -> ()
        | _ -> best := Some (cost, dim, c * unit)
      done)
    orderings;
  match !best with
  | Some (_, dim, cut) -> (dim, cut)
  | None -> invalid_arg "Bulk_tgs.best_cut: no ordering has two runs"

(* Greedily bisect [set] into groups of at most [unit] entries. *)
let rec partition ~unit set groups =
  let n = Array.length set in
  if n <= unit then set :: groups
  else begin
    let sorted =
      Array.init 4 (fun dim ->
          let s = Array.copy set in
          Array.sort (Entry.compare_dim dim) s;
          s)
    in
    let dim, cut =
      best_cut ~unit (Array.map (fun s -> run_boxes ~unit n (fun f -> Array.iter f s)) sorted)
    in
    let left = Array.sub sorted.(dim) 0 cut and right = Array.sub sorted.(dim) cut (n - cut) in
    partition ~unit left (partition ~unit right groups)
  end

let load pool entries =
  Prt_obs.Trace.with_span "tgs.build"
    ~args:[ ("n", Prt_obs.Json.Int (Array.length entries)) ]
  @@ fun () ->
  let cap = Node.capacity ~page_size:(Pager.page_size (Buffer_pool.pager pool)) in
  if Array.length entries = 0 then Rtree.create_empty pool
  else begin
    (* Build a subtree of exactly [height] levels over [set]. *)
    let rec build set ~height =
      if height = 1 then Pack.write_node pool ~kind:Node.Leaf set
      else begin
        let unit = pow_int cap (height - 1) in
        let groups = partition ~unit set [] in
        let children = List.map (fun g -> build g ~height:(height - 1)) groups in
        Pack.write_node pool ~kind:Node.Internal (Array.of_list children)
      end
    in
    let height = height_for ~cap (Array.length entries) in
    let root = build entries ~height in
    Rtree.of_root ~pool ~root:(Entry.id root) ~height ~count:(Array.length entries)
  end
