(* The two-dimensional pseudo-PR-tree (Section 2.1 of the paper).

   A pseudo-PR-tree on a set S of rectangles is, conceptually, a 4-D
   kd-tree on the points (xmin, ymin, xmax, ymax) where every internal
   node additionally carries four "priority leaves": the B rectangles of
   its subtree that are extreme in each of the four directions (leftmost
   left edges, bottommost bottom edges, rightmost right edges, topmost
   top edges), each drawn from what the earlier priority leaves left
   behind.  The remainder is median-split on the kd-coordinate cycling
   xmin, ymin, xmax, ymax.  Internal nodes therefore have degree at most
   six: four priority leaves and two recursive subtrees.

   Queries on this structure visit O(sqrt(N/B) + T/B) nodes (Lemma 2);
   the real PR-tree (see {!Prtree}) uses only the *leaves* of
   pseudo-PR-trees, stage by stage.

   Construction here is in-memory and selection-based: priority leaves
   are peeled off with expected-linear quickselect, and the median split
   is a selection too, so building is O(N log N) expected.  The
   selection runs over unboxed data: the input's four coordinates are
   copied once into [Float.Array] columns, and the kernel permutes an
   int array of indices into them.  Its quickselect is
   {!Prt_util.Select.partition_at} specialised to one key column and a
   direction: the same pivots and the same Hoare scan, comparing keys
   inline and reading the rest of [Entry.compare_dim]'s order (the
   rectangle, then the id) from the columns only on equal keys.  Every
   comparison therefore has [Entry.compare_dim]'s outcome, and the
   permutation moves exactly as [Select.partition_at] moves an entry
   array under that order: every leaf holds the entries a build with
   [Entry.compare_dim] closures puts in it.  Inside a leaf the entries
   are in page order ({!Prt_rtree.Node.page_compare}): the kernel
   heapsorts the leaf's index range on the columns, and reads the
   leaf's bounding box from them as it hands the leaf out.
   {!build_leaves} hands the leaves straight to the PR-tree's stages;
   {!build} wraps them in the tree for Lemma 2, the audit and the
   ablation.  The I/O-efficient external construction lives in
   {!Ext_build}. *)

module Rect = Prt_geom.Rect
module Select = Prt_util.Select
module Entry = Prt_rtree.Entry

type t =
  | Leaf of { mbr : Rect.t; entries : Entry.t array; priority : int option }
    (* [priority] is the direction (0..3) the leaf is extreme in, or
       [None] for an ordinary kd-leaf. *)
  | Node of { mbr : Rect.t; children : t list }

let mbr = function Leaf { mbr; _ } -> mbr | Node { mbr; _ } -> mbr

(* Comparison that makes "smallest first" mean "most extreme first" for
   each of the four priority directions: minimal xmin and ymin, maximal
   xmax and ymax. *)
let extreme_cmp dim =
  if dim < 2 then Entry.compare_dim dim else fun a b -> Entry.compare_dim dim b a

(* --- the selection kernel --- *)

type columns = {
  xmin : Float.Array.t;
  ymin : Float.Array.t;
  xmax : Float.Array.t;
  ymax : Float.Array.t;
  ids : int array;
}

let columns entries =
  let col f = Float.Array.init (Array.length entries) (fun i -> f (Entry.rect entries.(i))) in
  {
    xmin = col Rect.xmin;
    ymin = col Rect.ymin;
    xmax = col Rect.xmax;
    ymax = col Rect.ymax;
    ids = Array.map Entry.id entries;
  }

let key c dim = match dim with 0 -> c.xmin | 1 -> c.ymin | 2 -> c.xmax | _ -> c.ymax

let[@inline] fcmp col x y =
  Float.compare (Float.Array.unsafe_get col x) (Float.Array.unsafe_get col y)

(* [Entry.compare_dim]'s tie-break from the columns: the rectangles in
   [Rect.compare] order (xmin, ymin, xmax, ymax), then the ids. *)
let tie_break c x y =
  let r = fcmp c.xmin x y in
  if r <> 0 then r
  else
    let r = fcmp c.ymin x y in
    if r <> 0 then r
    else
      let r = fcmp c.xmax x y in
      if r <> 0 then r
      else
        let r = fcmp c.ymax x y in
        if r <> 0 then r else Int.compare (Array.unsafe_get c.ids x) (Array.unsafe_get c.ids y)

(* [Entry.compare_dim dim] of element [x] against the pivot [p], whose
   key in column [key] (that of [dim]) is [kp].  The float comparisons
   decide unless the keys are equal (or NaN, which [Float.compare]
   orders as [Entry.compare_dim] does). *)
let[@inline] compare_to c key x p kp =
  let kx = Float.Array.unsafe_get key x in
  if kx < kp then -1
  else if kx > kp then 1
  else
    let r = Float.compare kx kp in
    if r <> 0 then r else tie_break c x p

let[@inline] swap (perm : int array) i j =
  let tmp = Array.unsafe_get perm i in
  Array.unsafe_set perm i (Array.unsafe_get perm j);
  Array.unsafe_set perm j tmp

(* [Select.partition_at] on [perm.(lo..hi)] under [sign] times
   [Entry.compare_dim] on [key]'s dimension ([sign] -1 puts the largest
   first): the same pivot rule and the same Hoare scan, so it makes the
   swaps [Select.partition_at] makes on the entries themselves. *)
let rec partition c key sign perm lo hi n =
  if hi - lo > 1 then begin
    swap perm (Select.pivot_index lo hi) lo;
    let p = perm.(lo) in
    let kp = Float.Array.get key p in
    let i = ref (lo + 1) and j = ref (hi - 1) in
    while !i <= !j do
      while !i <= !j && sign * compare_to c key (Array.unsafe_get perm !i) p kp < 0 do
        incr i
      done;
      while !i <= !j && sign * compare_to c key (Array.unsafe_get perm !j) p kp > 0 do
        decr j
      done;
      if !i < !j then begin
        swap perm !i !j;
        incr i;
        decr j
      end
      else if !i = !j then incr i
    done;
    let mid = !j in
    swap perm lo mid;
    if n < mid then partition c key sign perm lo mid n
    else if n > mid then partition c key sign perm (mid + 1) hi n
  end

(* --- a leaf in page order ---

   Each leaf's range of [perm] is sorted into page order
   ({!Prt_rtree.Node.page_compare}) before it is handed out, so the
   node writer's order check passes and no sort over boxed entries
   follows.  [page_cmp] is that order on the columns: ascending [xmin]
   with NaN last, then [tie_break], whose first comparison (the
   [xmin]s again) then returns 0. *)
let[@inline] page_cmp c x y =
  let a = Float.Array.unsafe_get c.xmin x and b = Float.Array.unsafe_get c.xmin y in
  if a < b then -1
  else if a > b then 1
  else if a = b || (a <> a && b <> b) then tie_break c x y
  else if a <> a then 1
  else -1

(* Sift [perm.(lo + i)] down the max-heap [perm.(lo .. lo + n - 1)]. *)
let rec sift c perm lo i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let r = l + 1 in
    let m =
      if r < n && page_cmp c (Array.unsafe_get perm (lo + r)) (Array.unsafe_get perm (lo + l)) > 0
      then r
      else l
    in
    if page_cmp c (Array.unsafe_get perm (lo + m)) (Array.unsafe_get perm (lo + i)) > 0 then begin
      swap perm (lo + i) (lo + m);
      sift c perm lo m n
    end
  end

(* Heapsort of [perm.(lo .. hi - 1)] into page order: in place, with
   no allocation, in O(n log n) comparisons. *)
let sort_page c perm lo hi =
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift c perm lo i n
  done;
  for k = n - 1 downto 1 do
    swap perm lo (lo + k);
    sift c perm lo 0 k
  done

(* [Float.min] and [Float.max] for floats that are not NaN, inline (a
   call would box them): they differ from [<] only on equal zeros,
   where [-0.] is the min and [+0.] the max. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else if Float.sign_bit x then x else y
let[@inline] fmax x y = if x > y then x else if y > x then y else if Float.sign_bit x then y else x

(* The bounding box of a leaf's range, read from the columns: the
   bits [Rect.union_map] gives over the same entries.  A NaN
   coordinate (no [Rect.make] rectangle has one) falls back to
   [Rect.union_map] itself, whose [Float.min] propagates it. *)
let range_mbr c entries perm lo hi =
  let p = Array.unsafe_get perm lo in
  let xmin = ref (Float.Array.get c.xmin p) and ymin = ref (Float.Array.get c.ymin p) in
  let xmax = ref (Float.Array.get c.xmax p) and ymax = ref (Float.Array.get c.ymax p) in
  let ordered = ref (!xmin <= !xmax && !ymin <= !ymax) in
  for k = lo + 1 to hi - 1 do
    let p = Array.unsafe_get perm k in
    let x0 = Float.Array.unsafe_get c.xmin p and y0 = Float.Array.unsafe_get c.ymin p in
    let x1 = Float.Array.unsafe_get c.xmax p and y1 = Float.Array.unsafe_get c.ymax p in
    ordered := !ordered && x0 <= x1 && y0 <= y1;
    xmin := fmin !xmin x0;
    ymin := fmin !ymin y0;
    xmax := fmax !xmax x1;
    ymax := fmax !ymax y1
  done;
  if !ordered then Rect.make ~xmin:!xmin ~ymin:!ymin ~xmax:!xmax ~ymax:!ymax
  else Rect.union_map ~lo ~hi ~f:(fun p -> Entry.rect entries.(p)) perm

(* Run the construction, calling [leaf ~priority ~mbr entries] for each
   leaf in construction order — its entries in page order, [mbr] their
   bounding box — and [node children] for each internal node.  A
   leaf's range of [perm] is final when it is handed out: later
   selections touch only the ranges after it, so sorting it changes no
   other leaf. *)
let kernel ~b ?priority_size ~leaf ~node entries =
  if b < 1 then invalid_arg "Pseudo.build: b must be >= 1";
  (* Priority leaves default to full size b (the paper's choice); 0
     disables them entirely, degenerating to a plain 4-D kd-tree — the
     ablation baseline, essentially the structure of reference [2] when
     set to 1. *)
  let priority_size = match priority_size with Some s -> s | None -> b in
  if priority_size < 0 || priority_size > b then
    invalid_arg "Pseudo.build: priority_size outside [0, b]";
  if Array.length entries = 0 then invalid_arg "Pseudo.build: empty input";
  let c = columns entries in
  let perm = Array.init (Array.length entries) Fun.id in
  let leaf ?priority lo hi =
    sort_page c perm lo hi;
    leaf ~priority ~mbr:(range_mbr c entries perm lo hi)
      (Array.init (hi - lo) (fun k -> entries.(perm.(lo + k))))
  in
  (* Peel the priority leaves off [perm.(lo..hi)]: for each direction in
     order, move the [priority_size] most extreme remaining entries to
     the front and emit them as a leaf. Returns the new [lo] and the
     reversed leaf list. *)
  let extract_priority_leaves lo hi =
    let acc = ref [] and lo = ref lo and dim = ref 0 in
    while !dim < 4 && !lo < hi && priority_size > 0 do
      let k = min priority_size (hi - !lo) in
      if !lo + k < hi then
        partition c (key c !dim) (if !dim < 2 then 1 else -1) perm !lo hi (!lo + k - 1);
      acc := leaf ~priority:!dim !lo (!lo + k) :: !acc;
      lo := !lo + k;
      incr dim
    done;
    (!lo, !acc)
  in
  let rec go lo hi depth =
    if hi - lo <= b then leaf lo hi
    else begin
      let lo', rev_leaves = extract_priority_leaves lo hi in
      if lo' >= hi then node (List.rev rev_leaves)
      else if hi - lo' <= b then
        (* The remainder fits a single leaf: no kd split needed. *)
        node (List.rev_append rev_leaves [ leaf lo' hi ])
      else begin
        (* kd median split of the remainder, cycling the dimension. *)
        let dim = depth mod 4 in
        let mid = lo' + ((hi - lo') / 2) in
        partition c (key c dim) 1 perm lo' hi mid;
        (* [mid] itself goes right so both sides are non-empty. *)
        let left = go lo' mid (depth + 1) in
        let right = go mid hi (depth + 1) in
        node (List.rev_append rev_leaves [ left; right ])
      end
    end
  in
  go 0 (Array.length entries) 0

let build ?(b = 113) ?priority_size entries =
  kernel ~b ?priority_size entries
    ~leaf:(fun ~priority ~mbr entries -> Leaf { mbr; entries; priority })
    ~node:(fun children ->
      let box =
        List.fold_left (fun acc c -> Rect.union acc (mbr c)) (mbr (List.hd children)) children
      in
      Node { mbr = box; children })

let build_leaves ?(b = 113) ?priority_size entries =
  kernel ~b ?priority_size entries
    ~leaf:(fun ~priority:_ ~mbr entries -> [ (mbr, entries) ])
    ~node:List.concat

let rec fold_leaves t ~init ~f =
  match t with
  | Leaf { entries; priority; _ } -> f init ~entries ~priority
  | Node { children; _ } -> List.fold_left (fun acc c -> fold_leaves c ~init:acc ~f) init children

let leaves t =
  List.rev (fold_leaves t ~init:[] ~f:(fun acc ~entries ~priority:_ -> entries :: acc))

(* Window query, counting visited nodes: used to check Lemma 2
   empirically. A "node visit" here is any tree node whose parent's
   recorded box intersects the query (the root is always visited). *)
type query_stats = { mutable inner_visited : int; mutable leaves_visited : int; mutable matched : int }

let query t window ~f =
  let stats = { inner_visited = 0; leaves_visited = 0; matched = 0 } in
  let rec visit t =
    match t with
    | Leaf { entries; _ } ->
        stats.leaves_visited <- stats.leaves_visited + 1;
        Array.iter
          (fun e ->
            if Rect.intersects (Entry.rect e) window then begin
              stats.matched <- stats.matched + 1;
              f e
            end)
          entries
    | Node { children; _ } ->
        stats.inner_visited <- stats.inner_visited + 1;
        List.iter (fun c -> if Rect.intersects (mbr c) window then visit c) children
  in
  visit t;
  stats

(* Structural checks used by the test suite. *)

let rec size t =
  match t with
  | Leaf { entries; _ } -> Array.length entries
  | Node { children; _ } -> List.fold_left (fun acc c -> acc + size c) 0 children

(* Flatten the tree into the unified audit's neutral descriptors.  The
   geometry-aware part — is this priority leaf really extreme? — is
   computed here: every entry of a priority leaf in direction [d] must
   be at least as extreme under [extreme_cmp d] as every entry held by
   the siblings that come after it (later priority leaves and the kd
   subtrees), because the build peels the directions in order. *)
let audit ?(b = 113) t =
  let module Audit = Prt_rtree.Audit in
  let descs = ref [] in
  let add d = descs := d :: !descs in
  let rec subtree_entries t acc =
    match t with
    | Leaf { entries; _ } -> entries :: acc
    | Node { children; _ } -> List.fold_left (fun acc c -> subtree_entries c acc) acc children
  in
  let leaf_box_ok box entries =
    Array.length entries = 0 || Rect.equal box (Rect.union_map ~f:Entry.rect entries)
  in
  let emit_leaf where ~box ~entries ~priority ~extreme =
    add
      {
        Audit.pd_where = where;
        pd_kind =
          Audit.Pseudo_leaf { size = Array.length entries; priority; extreme };
        pd_box_ok = leaf_box_ok box entries;
      }
  in
  (* Least-extreme member of the leaf vs. most-extreme member of the
     rest: one comparison decides the whole leaf. *)
  let extreme_ok dir entries rest =
    Array.length entries = 0
    ||
    let worst =
      Array.fold_left
        (fun w e -> if extreme_cmp dir e w > 0 then e else w)
        entries.(0) entries
    in
    List.for_all (Array.for_all (fun r -> extreme_cmp dir worst r <= 0)) rest
  in
  let rec go where t =
    match t with
    | Leaf { mbr = box; entries; priority } ->
        (* A leaf root has nothing to be extreme against. *)
        emit_leaf where ~box ~entries ~priority ~extreme:true
    | Node { mbr = box; children } ->
        let box_ok =
          children <> []
          && Rect.equal box
               (List.fold_left
                  (fun acc c -> Rect.union acc (mbr c))
                  (mbr (List.hd children))
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
            | Leaf { mbr = box'; entries; priority } ->
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
            | Node _ -> go where' c)
          children
  in
  go "pseudo" t;
  Prt_rtree.Audit.check_pseudo ~degree_limit:6 ~leaf_capacity:b (List.rev !descs)
