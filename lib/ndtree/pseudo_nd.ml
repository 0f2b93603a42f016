(* The d-dimensional pseudo-PR-tree (Section 2.3): a 2d-dimensional
   kd-tree over boxes-as-points, each node carrying 2d priority leaves —
   the b boxes most extreme in each of the 2d standard directions
   (minimal low side per dimension, then maximal high side per
   dimension), each drawn from the remainder. Window queries visit
   O((N/b)^(1-1/d) + T/b) nodes (the Theorem 2 analysis). *)

module Hyperrect = Prt_geom.Hyperrect
module Select = Prt_util.Select

type t =
  | Leaf of { mbr : Hyperrect.t; entries : Entry_nd.t array; priority : int option }
  | Node of { mbr : Hyperrect.t; children : t list }

let mbr = function Leaf { mbr; _ } -> mbr | Node { mbr; _ } -> mbr

(* "Smallest first" = "most extreme first": low sides ascending, high
   sides descending. [dim] ranges over 0..2d-1. *)
let extreme_cmp ~dims dim =
  if dim < dims then Entry_nd.compare_dim dim else fun a b -> Entry_nd.compare_dim dim b a

let leaf ?priority entries =
  Leaf { mbr = Hyperrect.union_map ~f:Entry_nd.box entries; entries; priority }

let build ?(b = 113) ~dims entries =
  if b < 1 then invalid_arg "Pseudo_nd.build: b must be >= 1";
  if Array.length entries = 0 then invalid_arg "Pseudo_nd.build: empty input";
  Array.iter
    (fun e ->
      if Hyperrect.dims (Entry_nd.box e) <> dims then
        invalid_arg "Pseudo_nd.build: dimension mismatch")
    entries;
  let kd_dims = 2 * dims in
  let arr = Array.copy entries in
  let rec go lo hi depth =
    if hi - lo <= b then leaf (Array.sub arr lo (hi - lo))
    else begin
      let box = Hyperrect.union_map ~lo ~hi ~f:Entry_nd.box arr in
      (* Peel the 2d priority leaves. *)
      let rev_leaves = ref [] and lo' = ref lo in
      let dim = ref 0 in
      while !dim < kd_dims && !lo' < hi do
        let k = min b (hi - !lo') in
        Select.smallest_to_front ~cmp:(extreme_cmp ~dims !dim) arr !lo' hi k;
        rev_leaves := leaf ~priority:!dim (Array.sub arr !lo' k) :: !rev_leaves;
        lo' := !lo' + k;
        incr dim
      done;
      let lo' = !lo' in
      let children =
        if lo' >= hi then List.rev !rev_leaves
        else if hi - lo' <= b then List.rev_append !rev_leaves [ leaf (Array.sub arr lo' (hi - lo')) ]
        else begin
          let dim = depth mod kd_dims in
          let mid = lo' + ((hi - lo') / 2) in
          Select.partition_at ~cmp:(Entry_nd.compare_dim dim) arr lo' hi mid;
          let left = go lo' mid (depth + 1) in
          let right = go mid hi (depth + 1) in
          List.rev_append !rev_leaves [ left; right ]
        end
      in
      Node { mbr = box; children }
    end
  in
  go 0 (Array.length arr) 0

let rec fold_leaves t ~init ~f =
  match t with
  | Leaf { entries; priority; _ } -> f init ~entries ~priority
  | Node { children; _ } -> List.fold_left (fun acc c -> fold_leaves c ~init:acc ~f) init children

let leaves t =
  List.rev (fold_leaves t ~init:[] ~f:(fun acc ~entries ~priority:_ -> entries :: acc))

let rec size t =
  match t with
  | Leaf { entries; _ } -> Array.length entries
  | Node { children; _ } -> List.fold_left (fun acc c -> acc + size c) 0 children
