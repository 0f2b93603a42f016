(* d-dimensional instantiation of the unified audit: the same paranoid
   page walk as the 2-D version (corruption becomes violations, never
   exceptions; Io_error propagates), with Hyperrect in place of Rect —
   page order included, which the engine's cut-off relies on in every
   dimension — and the pseudo-tree adapter for Pseudo_nd's
   2d-direction priority leaves. *)

module Audit = Prt_rtree.Audit
module Hyperrect = Prt_geom.Hyperrect
module Pager = Prt_storage.Pager

let page_where id = Printf.sprintf "page %d" id

let check ?(min_leaf_fill = 1) ?(min_fanout = 1) ?(check_leaks = false) ?(reachable = []) tree =
  let cap = Rtree_nd.capacity tree in
  let height = Rtree_nd.height tree in
  let pager = Rtree_nd.pager tree in
  let violations = ref [] in
  let add where what = violations := { Audit.where; what } :: !violations in
  let visited = Hashtbl.create 64 in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  let rec visit ~recorded id depth =
    if Hashtbl.mem visited id then add (page_where id) Audit.Page_shared
    else begin
      Hashtbl.replace visited id ();
      if Pager.is_free pager id then add (page_where id) Audit.Freed_page_reachable;
      match Rtree_nd.read_node tree id with
      | exception Invalid_argument msg -> add (page_where id) (Audit.Decode_error msg)
      | node -> (
          incr nodes;
          let n = Node_nd.length node in
          if n > cap then add (page_where id) (Audit.Node_overflow { count = n; capacity = cap });
          if not (Node_nd.in_page_order (Node_nd.entries node)) then
            add (page_where id) Audit.Unsorted_node;
          (match recorded with
          | Some r when n > 0 ->
              let exact = Node_nd.mbr node in
              if not (Hyperrect.contains r exact) then add (page_where id) Audit.Mbr_not_contained
              else if not (Hyperrect.equal r exact) then add (page_where id) Audit.Mbr_not_tight
          | _ -> ());
          match Node_nd.kind node with
          | Node_nd.Leaf ->
              incr leaves;
              entries := !entries + n;
              if depth <> height then add (page_where id) (Audit.Leaf_depth { depth; height });
              if n = 0 then begin
                if Rtree_nd.count tree > 0 then add (page_where id) Audit.Empty_node
              end
              else if depth > 1 && n < min_leaf_fill then
                add (page_where id) (Audit.Node_underfill { count = n; minimum = min_leaf_fill })
          | Node_nd.Internal ->
              if depth >= height then
                add (page_where id) (Audit.Internal_depth { depth; height });
              if n = 0 then add (page_where id) Audit.Empty_node
              else if depth > 1 && n < min_fanout then
                add (page_where id) (Audit.Node_underfill { count = n; minimum = min_fanout });
              Array.iter
                (fun e -> visit ~recorded:(Some (Entry_nd.box e)) (Entry_nd.id e) (depth + 1))
                (Node_nd.entries node))
    end
  in
  visit ~recorded:None (Rtree_nd.root tree) 1;
  if !entries <> Rtree_nd.count tree then
    add "tree" (Audit.Count_mismatch { expected = Rtree_nd.count tree; actual = !entries });
  if check_leaks then begin
    List.iter (fun p -> Hashtbl.replace visited p ()) reachable;
    for p = 0 to Pager.num_pages pager - 1 do
      if (not (Hashtbl.mem visited p)) && not (Pager.is_free pager p) then
        add (page_where p) Audit.Page_leaked
    done
  end;
  {
    Audit.violations = List.rev !violations;
    nodes = !nodes;
    leaves = !leaves;
    entries = !entries;
    pages_visited = Hashtbl.length visited;
  }

let check_pseudo ?(b = 113) ~dims t =
  let descs = ref [] in
  let add d = descs := d :: !descs in
  let rec subtree_entries t acc =
    match t with
    | Pseudo_nd.Leaf { entries; _ } -> entries :: acc
    | Pseudo_nd.Node { children; _ } ->
        List.fold_left (fun acc c -> subtree_entries c acc) acc children
  in
  let leaf_box_ok box entries =
    Array.length entries = 0
    || Hyperrect.equal box (Hyperrect.union_map ~f:Entry_nd.box entries)
  in
  let emit_leaf where ~box ~entries ~priority ~extreme =
    add
      {
        Audit.pd_where = where;
        pd_kind = Audit.Pseudo_leaf { size = Array.length entries; priority; extreme };
        pd_box_ok = leaf_box_ok box entries;
      }
  in
  let extreme_ok dir entries rest =
    Array.length entries = 0
    ||
    let cmp = Pseudo_nd.extreme_cmp ~dims dir in
    let worst =
      Array.fold_left (fun w e -> if cmp e w > 0 then e else w) entries.(0) entries
    in
    List.for_all (Array.for_all (fun r -> cmp worst r <= 0)) rest
  in
  let rec go where t =
    match t with
    | Pseudo_nd.Leaf { mbr = box; entries; priority } ->
        emit_leaf where ~box ~entries ~priority ~extreme:true
    | Pseudo_nd.Node { mbr = box; children } ->
        let box_ok =
          children <> []
          && Hyperrect.equal box
               (List.fold_left
                  (fun acc c -> Hyperrect.union acc (Pseudo_nd.mbr c))
                  (Pseudo_nd.mbr (List.hd children))
                  children)
        in
        add
          {
            Audit.pd_where = where;
            pd_kind = Audit.Pseudo_node { degree = List.length children };
            pd_box_ok = box_ok;
          };
        List.iteri
          (fun i c ->
            let where' = where ^ "/" ^ string_of_int i in
            match c with
            | Pseudo_nd.Leaf { mbr = box'; entries; priority } ->
                let extreme =
                  match priority with
                  | None -> true
                  | Some dir ->
                      let rest =
                        List.filteri (fun j _ -> j > i) children
                        |> List.fold_left (fun acc s -> subtree_entries s acc) []
                      in
                      extreme_ok dir entries rest
                in
                emit_leaf where' ~box:box' ~entries ~priority ~extreme
            | Pseudo_nd.Node _ -> go where' c)
          children
  in
  go "pseudo-nd" t;
  Audit.check_pseudo ~degree_limit:((2 * dims) + 2) ~leaf_capacity:b (List.rev !descs)
