(* Unified invariant audit (see the interface for the catalogue).

   The walker is deliberately paranoid: it never trusts a page.  It
   reads each node page once, through the buffer pool, into columns by
   [Node]'s one checked reader for the tree's dimension, so one walk
   checks trees of every d, and judges page order by [Node]'s one
   predicate.  A page the pager refuses, a page that would not decode,
   an out-of-range child pointer and a reference cycle all become
   violations instead of exceptions, so a corrupted index produces a
   report naming the broken invariant rather than a crash, the property
   the mutation tests in test/test_audit.ml pin down.  Device-level
   [Pager.Io_error]s are the one exception: they propagate, because a
   disk that cannot be read is not a clean audit. *)

module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool

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
  min_leaf_fill : int;
  min_internal_fanout : int;
  utilization : float;
  pages : int list;
}

let ok r = r.violations = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "audit clean: %d nodes (%d leaves), %d entries, %d pages" r.nodes r.leaves
      r.entries (List.length r.pages)
  else
    Fmt.pf ppf "audit found %d violation(s):@.%a"
      (List.length r.violations)
      (Fmt.list ~sep:Fmt.cut pp_violation)
      r.violations

let page_where id = Printf.sprintf "page %d" id

(* Node page [id] through [Node]'s one checked reader: its kind, its
   [2 * dims] coordinate columns and its ids.  A page the pager refuses
   or cannot find is an [Error] too. *)
let read_page pool ~dims id =
  match Buffer_pool.read pool id with
  | exception (Pager.Corrupt_page msg | Invalid_argument msg) -> Error msg
  | buf -> Node.read_columns ~dims buf

(* The box a parent records for a child (slot [slot] of the parent's
   [recorded] columns) against the child's exact box, the union of the
   child's [n > 0] entries. *)
let box_violation ~dims recorded slot cols n =
  let contained = ref true and tight = ref true in
  for k = 0 to dims - 1 do
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to n - 1 do
      lo := Float.min !lo (Float.Array.get cols.(k) i);
      hi := Float.max !hi (Float.Array.get cols.(dims + k) i)
    done;
    let rlo = Float.Array.get recorded.(k) slot
    and rhi = Float.Array.get recorded.(dims + k) slot in
    if rlo > !lo || !hi > rhi then contained := false;
    if rlo <> !lo || rhi <> !hi then tight := false
  done;
  if not !contained then Some Mbr_not_contained
  else if not !tight then Some Mbr_not_tight
  else None

let check ?(min_leaf_fill = 1) ?(min_fanout = 1) ?(check_leaks = false) ?(reachable = [])
    ?(dims = 2) tree =
  let pool = Rtree.pool tree in
  let pager = Buffer_pool.pager pool in
  let cap = Node.capacity_nd ~page_size:(Pager.page_size pager) ~dims in
  let height = Rtree.height tree and count = Rtree.count tree in
  let violations = ref [] in
  let add id what = violations := { where = page_where id; what } :: !violations in
  let visited = Hashtbl.create 64 in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  let least_fill = ref max_int and least_fanout = ref max_int in
  (* [recorded] is the parent's columns and the slot holding the box it
     records for this child; [None] at the root. *)
  let rec visit ~recorded id depth =
    if Hashtbl.mem visited id then add id Page_shared
    else begin
      Hashtbl.replace visited id ();
      if Pager.is_free pager id then add id Freed_page_reachable;
      match read_page pool ~dims id with
      | Error msg -> add id (Decode_error msg)
      | Ok (kind, cols, ids) -> (
          incr nodes;
          let n = Array.length ids in
          let rec sorted i =
            i >= n || (Node.column_page_compare cols ids (i - 1) i <= 0 && sorted (i + 1))
          in
          if not (sorted 1) then add id Unsorted_node;
          (match recorded with
          | Some (parent, slot) when n > 0 ->
              Option.iter (add id) (box_violation ~dims parent slot cols n)
          | _ -> ());
          match kind with
          | Node.Leaf ->
              incr leaves;
              entries := !entries + n;
              least_fill := min !least_fill n;
              if depth <> height then add id (Leaf_depth { depth; height });
              if n = 0 then begin
                (* An empty root leaf is the empty tree. *)
                if depth > 1 || count > 0 then add id Empty_node
              end
              else if depth > 1 && n < min_leaf_fill then
                add id (Node_underfill { count = n; minimum = min_leaf_fill })
          | Node.Internal ->
              least_fanout := min !least_fanout n;
              if depth >= height then add id (Internal_depth { depth; height });
              if n = 0 then add id Empty_node
              else if depth > 1 && n < min_fanout then
                add id (Node_underfill { count = n; minimum = min_fanout });
              Array.iteri
                (fun slot child -> visit ~recorded:(Some (cols, slot)) child (depth + 1))
                ids)
    end
  in
  visit ~recorded:None (Rtree.root tree) 1;
  if !entries <> count then
    violations :=
      { where = "tree"; what = Count_mismatch { expected = count; actual = !entries } }
      :: !violations;
  if check_leaks then begin
    List.iter (fun p -> Hashtbl.replace visited p ()) reachable;
    for p = 0 to Pager.num_pages pager - 1 do
      if (not (Hashtbl.mem visited p)) && not (Pager.is_free pager p) then add p Page_leaked
    done
  end;
  let least r = if !r = max_int then 0 else !r in
  {
    violations = List.rev !violations;
    nodes = !nodes;
    leaves = !leaves;
    entries = !entries;
    min_leaf_fill = least least_fill;
    min_internal_fanout = least least_fanout;
    utilization =
      (if !leaves = 0 then 0.0 else float_of_int !entries /. float_of_int (!leaves * cap));
    pages = List.sort Int.compare (Hashtbl.fold (fun p () acc -> p :: acc) visited []);
  }

exception Invalid of violation

let () =
  Printexc.register_printer (function
    | Invalid v -> Some (Fmt.str "Audit.Invalid: %a" pp_violation v)
    | _ -> None)

let validate ?dims tree =
  let r = check ?dims tree in
  match r.violations with [] -> r | v :: _ -> raise (Invalid v)

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
