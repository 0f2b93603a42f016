(* The d-dimensional pseudo-tree adapter of the unified audit: it
   flattens a [Pseudo_nd] tree, with its 2d-direction priority leaves,
   into [Audit]'s neutral descriptors.  Paged d-D trees need no adapter:
   [Rtree_nd.audit] runs [Audit.check] at their dimension. *)

module Audit = Prt_rtree.Audit
module Hyperrect = Prt_geom.Hyperrect

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
