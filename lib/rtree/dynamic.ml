(* Dynamic R-tree updates: Guttman's ChooseLeaf insertion with
   configurable node splits, and deletion with tree condensation.

   These are "the standard R-tree updating algorithms" the paper refers
   to: applicable to any bulk-loaded tree, with no guarantee on query
   performance afterwards (the degradation is itself one of our
   experiments).  Orphaned entries from condensed nodes are reinserted
   at their original height so all leaves stay on one level. *)

module Rect = Prt_geom.Rect

type config = {
  split_algorithm : Split.algorithm;
  min_fill_fraction : float; (* of node capacity, for splits and underflow *)
  forced_reinsert_fraction : float;
      (* R* forced reinsertion: on the first overflow per level during an
         insertion, evict this fraction of the node's entries (those with
         centers farthest from the node center) and reinsert them instead
         of splitting. 0 disables. *)
  rstar_choose_subtree : bool;
      (* R* ChooseSubtree: at the level above the leaves, pick the child
         whose overlap with its siblings grows least (ties by area
         enlargement); false = Guttman least-enlargement everywhere. *)
}

let default_config =
  {
    split_algorithm = Split.Quadratic;
    min_fill_fraction = 0.4;
    forced_reinsert_fraction = 0.0;
    rstar_choose_subtree = false;
  }

let rstar_config =
  {
    split_algorithm = Split.Rstar;
    min_fill_fraction = 0.4;
    forced_reinsert_fraction = 0.3;
    rstar_choose_subtree = true;
  }

let min_fill t cfg =
  let m = int_of_float (cfg.min_fill_fraction *. float_of_int (Rtree.capacity t)) in
  max 1 (min m (Rtree.capacity t / 2))

(* Result of a recursive insertion below some node. *)
type ins_result =
  | Updated of Rect.t            (* subtree absorbed the entry; new MBR *)
  | Split_into of Entry.t * Entry.t (* subtree was split into two nodes *)

let append_entry entries e =
  let n = Array.length entries in
  let out = Array.make (n + 1) e in
  Array.blit entries 0 out 0 n;
  out

(* Guttman ChooseSubtree: least area enlargement, ties by smaller
   area. *)
let choose_subtree entries rect =
  let best = ref 0 and best_enl = ref infinity and best_area = ref infinity in
  Array.iteri
    (fun i e ->
      let enl = Rect.enlargement (Entry.rect e) rect in
      let area = Rect.area (Entry.rect e) in
      if enl < !best_enl || (enl = !best_enl && area < !best_area) then begin
        best := i;
        best_enl := enl;
        best_area := area
      end)
    entries;
  !best

(* R* ChooseSubtree at the leaf-parent level: least growth of overlap
   with siblings, ties by area enlargement. O(B^2) per node, as in the
   original. *)
let choose_subtree_overlap entries rect =
  let n = Array.length entries in
  let overlap_with_others i box =
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then acc := !acc +. Rect.overlap_area box (Entry.rect entries.(j))
    done;
    !acc
  in
  let best = ref 0 and best_growth = ref infinity and best_enl = ref infinity in
  Array.iteri
    (fun i e ->
      let before = overlap_with_others i (Entry.rect e) in
      let grown = Rect.union (Entry.rect e) rect in
      let growth = overlap_with_others i grown -. before in
      let enl = Rect.enlargement (Entry.rect e) rect in
      if growth < !best_growth || (growth = !best_growth && enl < !best_enl) then begin
        best := i;
        best_growth := growth;
        best_enl := enl
      end)
    entries;
  !best

(* Per-insertion context: the R* forced-reinsert bookkeeping. Each tree
   level may trigger a forced reinsert at most once per insertion
   ([visited] holds the levels that already did); evicted entries are
   queued in [pending] with the level they must re-enter at. *)
type ctx = {
  cfg : config;
  reinserted_levels : (int, unit) Hashtbl.t;
  mutable pending : (Entry.t * int) list;
}

let fresh_ctx cfg = { cfg; reinserted_levels = Hashtbl.create 4; pending = [] }

let center_dist2 (cx, cy) r =
  let x, y = Rect.center r in
  let dx = x -. cx and dy = y -. cy in
  (dx *. dx) +. (dy *. dy)

(* R* forced reinsertion: keep the entries whose centers are closest to
   the node's center, queue the farthest [fraction] for reinsertion. *)
let forced_reinsert ctx t node_id kind entries ~above =
  let n = Array.length entries in
  let evict = max 1 (int_of_float (ctx.cfg.forced_reinsert_fraction *. float_of_int n)) in
  let evict = min evict (n - 1) in
  let center = Rect.center (Rect.union_map ~f:Entry.rect entries) in
  let keyed = Array.map (fun e -> (center_dist2 center (Entry.rect e), e)) entries in
  Array.sort (fun (a, ea) (b, eb) ->
      let c = Float.compare a b in
      if c <> 0 then c else Entry.compare_dim 0 ea eb)
    keyed;
  let kept = Array.init (n - evict) (fun i -> snd keyed.(i)) in
  for i = n - evict to n - 1 do
    ctx.pending <- (snd keyed.(i), above) :: ctx.pending
  done;
  let node = Node.make kind kept in
  Rtree.write_node t node_id node;
  Node.mbr node

(* Handle a node that exceeded capacity: forced reinsert if enabled and
   not yet done at this level (never at the root — R* splits the root
   directly), otherwise split. *)
let overflow ctx t node_id kind entries ~above =
  let use_reinsert =
    ctx.cfg.forced_reinsert_fraction > 0.0
    && node_id <> Rtree.root t
    && not (Hashtbl.mem ctx.reinserted_levels above)
  in
  if use_reinsert then begin
    Hashtbl.replace ctx.reinserted_levels above ();
    Updated (forced_reinsert ctx t node_id kind entries ~above)
  end
  else begin
    let g1, g2 = Split.split ctx.cfg.split_algorithm ~min_fill:(min_fill t ctx.cfg) entries in
    let n1 = Node.make kind g1 and n2 = Node.make kind g2 in
    Rtree.write_node t node_id n1;
    let id2 = Rtree.alloc_node t n2 in
    Split_into (Entry.make (Node.mbr n1) node_id, Entry.make (Node.mbr n2) id2)
  end

(* Insert [entry] into the subtree rooted at [node_id] (which sits at
   [depth], root = 1), placing it in a node [above] levels above the
   leaves (0 = data entry into a leaf). *)
let rec insert_rec t ctx node_id entry ~above ~depth =
  let node = Rtree.read_node t node_id in
  let here = Rtree.height t - depth = above in
  if here then begin
    let entries = append_entry (Node.entries node) entry in
    if Array.length entries <= Rtree.capacity t then begin
      let node = Node.make (Node.kind node) entries in
      Rtree.write_node t node_id node;
      Updated (Node.mbr node)
    end
    else overflow ctx t node_id (Node.kind node) entries ~above
  end
  else begin
    let entries = Node.entries node in
    assert (Node.kind node = Node.Internal && Array.length entries > 0);
    (* The level above the target uses the (optional) R* overlap rule. *)
    let at_parent_of_target = Rtree.height t - depth = above + 1 in
    let i =
      if ctx.cfg.rstar_choose_subtree && at_parent_of_target then
        choose_subtree_overlap entries (Entry.rect entry)
      else choose_subtree entries (Entry.rect entry)
    in
    match insert_rec t ctx (Entry.id entries.(i)) entry ~above ~depth:(depth + 1) with
    | Updated child_mbr ->
        entries.(i) <- Entry.make child_mbr (Entry.id entries.(i));
        let node = Node.make Node.Internal entries in
        Rtree.write_node t node_id node;
        Updated (Node.mbr node)
    | Split_into (e1, e2) ->
        entries.(i) <- e1;
        let entries = append_entry entries e2 in
        if Array.length entries <= Rtree.capacity t then begin
          let node = Node.make Node.Internal entries in
          Rtree.write_node t node_id node;
          Updated (Node.mbr node)
        end
        else overflow ctx t node_id Node.Internal entries ~above:(Rtree.height t - depth)
  end

let insert_at_ctx t ctx entry ~above =
  if above < 0 || above >= Rtree.height t then invalid_arg "Dynamic.insert_at: bad level";
  match insert_rec t ctx (Rtree.root t) entry ~above ~depth:1 with
  | Updated _ -> ()
  | Split_into (e1, e2) ->
      let root = Rtree.alloc_node t (Node.make Node.Internal [| e1; e2 |]) in
      Rtree.set_root t ~root ~height:(Rtree.height t + 1)

(* Drain the forced-reinsert queue; reinserts may enqueue more work. *)
let drain_pending t ctx =
  let rec go () =
    match ctx.pending with
    | [] -> ()
    | (e, above) :: rest ->
        ctx.pending <- rest;
        insert_at_ctx t ctx e ~above;
        go ()
  in
  go ()

let insert_at t cfg entry ~above =
  let ctx = fresh_ctx cfg in
  insert_at_ctx t ctx entry ~above;
  drain_pending t ctx

let insert ?(config = default_config) t entry =
  (* A rectangle [Node.decode] refuses — a NaN coordinate fails its
     [xmin <= xmax && ymin <= ymax] — would make its leaf unreadable and
     spread NaN into every box above it, hiding whole subtrees from
     queries: refuse it before any page is touched. *)
  let r = Entry.rect entry in
  if not (r.Rect.xmin <= r.Rect.xmax && r.Rect.ymin <= r.Rect.ymax) then
    invalid_arg (Format.asprintf "Dynamic.insert: rectangle %a does not decode" Rect.pp r);
  insert_at t config entry ~above:0;
  Rtree.set_count t (Rtree.count t + 1)

(* --- Deletion --- *)

type del_result =
  | Not_found_here
  | Kept of Rect.t    (* entry removed, node still valid; new subtree MBR *)
  | Dissolved         (* node fell under min fill and was dissolved *)

let remove_at arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let delete ?(config = default_config) t target =
  let m = min_fill t config in
  (* Orphans: entries of dissolved nodes, tagged with the height above
     the leaves at which they must be reinserted. *)
  let orphans = ref [] in
  let rec del node_id ~depth =
    let node = Rtree.read_node t node_id in
    let entries = Node.entries node in
    match Node.kind node with
    | Node.Leaf -> begin
        let found = ref (-1) in
        Array.iteri (fun i e -> if !found < 0 && Entry.equal e target then found := i) entries;
        if !found < 0 then Not_found_here
        else begin
          let remaining = remove_at entries !found in
          let is_root = node_id = Rtree.root t in
          if (not is_root) && Array.length remaining < m then begin
            Array.iter (fun e -> orphans := (e, 0) :: !orphans) remaining;
            Rtree.free_node t node_id;
            Dissolved
          end
          else begin
            let node = Node.make Node.Leaf remaining in
            Rtree.write_node t node_id node;
            Kept (if Array.length remaining = 0 then Entry.rect target else Node.mbr node)
          end
        end
      end
    | Node.Internal -> begin
        (* The entry may live under any child whose box contains it. *)
        let result = ref Not_found_here and child = ref (-1) in
        (try
           Array.iteri
             (fun i e ->
               if Rect.contains (Entry.rect e) (Entry.rect target) then begin
                 match del (Entry.id e) ~depth:(depth + 1) with
                 | Not_found_here -> ()
                 | r ->
                     result := r;
                     child := i;
                     raise Exit
               end)
             entries
         with Exit -> ());
        match !result with
        | Not_found_here -> Not_found_here
        | Kept child_mbr ->
            entries.(!child) <- Entry.make child_mbr (Entry.id entries.(!child));
            let node = Node.make Node.Internal entries in
            Rtree.write_node t node_id node;
            Kept (Node.mbr node)
        | Dissolved ->
            let remaining = remove_at entries !child in
            let is_root = node_id = Rtree.root t in
            if (not is_root) && Array.length remaining < m then begin
              (* These entries lived in a node at [depth] and point at
                 subtrees rooted one level below, so they re-enter at
                 [height - depth] levels above the leaves. *)
              let above = Rtree.height t - depth in
              Array.iter (fun e -> orphans := (e, above) :: !orphans) remaining;
              Rtree.free_node t node_id;
              Dissolved
            end
            else begin
              let node = Node.make Node.Internal remaining in
              Rtree.write_node t node_id node;
              if Array.length remaining = 0 then Dissolved else Kept (Node.mbr node)
            end
      end
  in
  (* Reinsert a dissolved subtree's data entries one by one — the
     fallback when the subtree's original level no longer exists (the
     tree shrank below it). Frees the subtree's pages. *)
  let rec reinsert_as_data e ~above =
    if above = 0 then insert_at t config e ~above:0
    else begin
      let node = Rtree.read_node t (Entry.id e) in
      Rtree.free_node t (Entry.id e);
      Array.iter (fun child -> reinsert_as_data child ~above:(above - 1)) (Node.entries node)
    end
  in
  match del (Rtree.root t) ~depth:1 with
  | Not_found_here -> false
  | Kept _ | Dissolved ->
      Rtree.set_count t (Rtree.count t - 1);
      (* If the root lost all children, reset to an empty leaf before
         reinsertion. *)
      let root_node = Rtree.read_node t (Rtree.root t) in
      if Node.kind root_node = Node.Internal && Node.length root_node = 0 then begin
        Rtree.write_node t (Rtree.root t) (Node.make Node.Leaf [||]);
        Rtree.set_root t ~root:(Rtree.root t) ~height:1
      end;
      (* Reinsert orphans at their original level (deepest first so leaf
         entries are present before higher subtrees rejoin). *)
      let sorted = List.sort (fun (_, a) (_, b) -> Int.compare a b) !orphans in
      List.iter
        (fun (e, above) ->
          if above < Rtree.height t then insert_at t config e ~above
          else reinsert_as_data e ~above)
        sorted;
      (* Shrink the root while it is an internal node with one child. *)
      let rec shrink () =
        if Rtree.height t > 1 then begin
          let node = Rtree.read_node t (Rtree.root t) in
          if Node.kind node = Node.Internal && Node.length node = 1 then begin
            let old_root = Rtree.root t in
            Rtree.set_root t ~root:(Entry.id (Node.entries node).(0))
              ~height:(Rtree.height t - 1);
            Rtree.free_node t old_root;
            shrink ()
          end
        end
      in
      shrink ();
      true
