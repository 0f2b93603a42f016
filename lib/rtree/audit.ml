(* Unified invariant audit (see the interface for the catalogue).

   The walker is deliberately paranoid: it never trusts a page.  Decode
   failures, out-of-range child pointers and reference cycles all become
   violations instead of exceptions, so a corrupted index produces a
   report naming the broken invariant rather than a crash — the property
   the mutation tests in test/test_audit.ml pin down.  Device-level
   [Pager.Io_error]s are the one exception: they propagate, because a
   disk that cannot be read is not a clean audit. *)

module Rect = Prt_geom.Rect
module Pager = Prt_storage.Pager

type what =
  | Decode_error of string
  | Mbr_not_contained
  | Mbr_not_tight
  | Leaf_depth of { depth : int; height : int }
  | Internal_depth of { depth : int; height : int }
  | Node_overflow of { count : int; capacity : int }
  | Node_underfill of { count : int; minimum : int }
  | Unsorted_node
  | Empty_node
  | Count_mismatch of { expected : int; actual : int }
  | Page_leaked
  | Page_shared
  | Freed_page_reachable
  | Degree_exceeded of { degree : int; limit : int }
  | Priority_not_extreme of { dir : int }
  | Box_mismatch

type violation = { where : string; what : what }

let label = function
  | Decode_error _ -> "decode-error"
  | Mbr_not_contained -> "mbr-not-contained"
  | Mbr_not_tight -> "mbr-not-tight"
  | Leaf_depth _ -> "leaf-depth"
  | Internal_depth _ -> "internal-depth"
  | Node_overflow _ -> "node-overflow"
  | Node_underfill _ -> "node-underfill"
  | Unsorted_node -> "unsorted-node"
  | Empty_node -> "empty-node"
  | Count_mismatch _ -> "count-mismatch"
  | Page_leaked -> "page-leaked"
  | Page_shared -> "page-shared"
  | Freed_page_reachable -> "freed-page-reachable"
  | Degree_exceeded _ -> "degree-exceeded"
  | Priority_not_extreme _ -> "priority-not-extreme"
  | Box_mismatch -> "box-mismatch"

let pp_what ppf = function
  | Decode_error msg -> Fmt.pf ppf "page does not decode (%s)" msg
  | Mbr_not_contained -> Fmt.pf ppf "child box escapes the MBR recorded by its parent"
  | Mbr_not_tight -> Fmt.pf ppf "recorded MBR is not tight around the child's subtree"
  | Leaf_depth { depth; height } ->
      Fmt.pf ppf "leaf at depth %d but the tree height is %d" depth height
  | Internal_depth { depth; height } ->
      Fmt.pf ppf "internal node at depth %d but the tree height is %d" depth height
  | Node_overflow { count; capacity } ->
      Fmt.pf ppf "node holds %d entries, capacity %d" count capacity
  | Node_underfill { count; minimum } ->
      Fmt.pf ppf "node holds %d entries, minimum %d" count minimum
  | Unsorted_node -> Fmt.pf ppf "entries not in page order (ascending xmin, or lo_0 in d-D)"
  | Empty_node -> Fmt.pf ppf "empty node"
  | Count_mismatch { expected; actual } ->
      Fmt.pf ppf "tree metadata says %d entries but the leaves hold %d" expected actual
  | Page_leaked -> Fmt.pf ppf "allocated page unreachable from the root"
  | Page_shared -> Fmt.pf ppf "page reachable via two different parents"
  | Freed_page_reachable -> Fmt.pf ppf "page is on the free list yet reachable"
  | Degree_exceeded { degree; limit } -> Fmt.pf ppf "pseudo-node degree %d exceeds %d" degree limit
  | Priority_not_extreme { dir } ->
      Fmt.pf ppf "priority leaf not extreme in direction %d" dir
  | Box_mismatch -> Fmt.pf ppf "box is not the union of the members"

let pp_violation ppf v = Fmt.pf ppf "%s: %s: %a" v.where (label v.what) pp_what v.what

type report = {
  violations : violation list;
  nodes : int;
  leaves : int;
  entries : int;
  pages_visited : int;
}

let ok r = r.violations = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "audit clean: %d nodes (%d leaves), %d entries, %d pages" r.nodes r.leaves
      r.entries r.pages_visited
  else
    Fmt.pf ppf "audit found %d violation(s):@.%a"
      (List.length r.violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations

let page_where id = Printf.sprintf "page %d" id

let check ?(min_leaf_fill = 1) ?(min_fanout = 1) ?(check_leaks = false) ?(reachable = []) tree =
  let cap = Rtree.capacity tree in
  let height = Rtree.height tree in
  let pager = Rtree.pager tree in
  let violations = ref [] in
  let add where what = violations := { where; what } :: !violations in
  let visited = Hashtbl.create 64 in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  (* [recorded] is the bounding box the parent stores for this child;
     [None] at the root. *)
  let rec visit ~recorded id depth =
    if Hashtbl.mem visited id then add (page_where id) Page_shared
    else begin
      Hashtbl.replace visited id ();
      if Pager.is_free pager id then add (page_where id) Freed_page_reachable;
      match Rtree.read_node tree id with
      | exception Invalid_argument msg -> add (page_where id) (Decode_error msg)
      | node -> (
          incr nodes;
          let n = Node.length node in
          if n > cap then add (page_where id) (Node_overflow { count = n; capacity = cap });
          if not (Node.in_page_order (Node.entries node)) then add (page_where id) Unsorted_node;
          (match recorded with
          | Some r when n > 0 ->
              let exact = Node.mbr node in
              if not (Rect.contains r exact) then add (page_where id) Mbr_not_contained
              else if not (Rect.equal r exact) then add (page_where id) Mbr_not_tight
          | _ -> ());
          match Node.kind node with
          | Node.Leaf ->
              incr leaves;
              entries := !entries + n;
              if depth <> height then add (page_where id) (Leaf_depth { depth; height });
              if n = 0 then begin
                if Rtree.count tree > 0 then add (page_where id) Empty_node
              end
              else if depth > 1 && n < min_leaf_fill then
                add (page_where id) (Node_underfill { count = n; minimum = min_leaf_fill })
          | Node.Internal ->
              if depth >= height then add (page_where id) (Internal_depth { depth; height });
              if n = 0 then add (page_where id) Empty_node
              else if depth > 1 && n < min_fanout then
                add (page_where id) (Node_underfill { count = n; minimum = min_fanout });
              Array.iter
                (fun e -> visit ~recorded:(Some (Entry.rect e)) (Entry.id e) (depth + 1))
                (Node.entries node))
    end
  in
  visit ~recorded:None (Rtree.root tree) 1;
  if !entries <> Rtree.count tree then
    add "tree" (Count_mismatch { expected = Rtree.count tree; actual = !entries });
  if check_leaks then begin
    List.iter (fun p -> Hashtbl.replace visited p ()) reachable;
    for p = 0 to Pager.num_pages pager - 1 do
      if (not (Hashtbl.mem visited p)) && not (Pager.is_free pager p) then
        add (page_where p) Page_leaked
    done
  end;
  {
    violations = List.rev !violations;
    nodes = !nodes;
    leaves = !leaves;
    entries = !entries;
    pages_visited = Hashtbl.length visited;
  }

(* --- pseudo-tree descriptors --- *)

type pseudo_kind =
  | Pseudo_leaf of { size : int; priority : int option; extreme : bool }
  | Pseudo_node of { degree : int }

type pseudo_desc = { pd_where : string; pd_kind : pseudo_kind; pd_box_ok : bool }

let check_pseudo ~degree_limit ~leaf_capacity descs =
  let violations = ref [] in
  let add where what = violations := { where; what } :: !violations in
  List.iter
    (fun d ->
      if not d.pd_box_ok then add d.pd_where Box_mismatch;
      match d.pd_kind with
      | Pseudo_node { degree } ->
          if degree = 0 then add d.pd_where Empty_node
          else if degree > degree_limit then
            add d.pd_where (Degree_exceeded { degree; limit = degree_limit })
      | Pseudo_leaf { size; priority; extreme } ->
          if size = 0 then add d.pd_where Empty_node
          else if size > leaf_capacity then
            add d.pd_where (Node_overflow { count = size; capacity = leaf_capacity });
          if not extreme then
            add d.pd_where (Priority_not_extreme { dir = Option.value priority ~default:(-1) }))
    descs;
  List.rev !violations
