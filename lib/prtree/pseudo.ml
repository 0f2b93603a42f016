(* The pseudo-PR-tree (Sections 2.1 and 2.3 of the paper), in every
   dimension.

   A pseudo-PR-tree on a set S of d-dimensional boxes is, conceptually,
   a 2d-dimensional kd-tree on the points (lo_0 .. lo_{d-1}, hi_0 ..
   hi_{d-1}) where every internal node additionally carries 2d
   "priority leaves": the B boxes of its subtree that are extreme in
   each direction (smallest low side per dimension, then largest high
   side per dimension), each drawn from what the earlier priority
   leaves left behind.  In the plane the four directions are xmin,
   ymin, xmax and ymax: leftmost left edges, bottommost bottom edges,
   rightmost right edges, topmost top edges.  The remainder is
   median-split on the kd-coordinate cycling through the 2d of them.
   Internal nodes therefore have degree at most 2d + 2 (six in the
   plane): 2d priority leaves and two recursive subtrees.

   Queries on this structure visit O((N/B)^(1-1/d) + T/B) nodes (Lemma
   2 in the plane); the real PR-tree (see {!Prtree}) uses only the
   *leaves* of pseudo-PR-trees, stage by stage.

   Construction here is in-memory and selection-based: priority leaves
   are peeled off with expected-linear quickselect, and the median split
   is a selection too, so building is O(N log N) expected.  The
   selection runs over unboxed data: the input's 2d coordinates are
   copied once into [Float.Array] columns, in kd order (lows, then
   highs: xmin, ymin, xmax, ymax in the plane), and the kernel permutes
   an int array of indices into them.  Its quickselect is
   {!Prt_util.Select.partition_at} specialised to one key column and a
   direction: the same pivots and the same Hoare scan, comparing keys
   inline and reading the rest of the entry order (every column in kd
   order, then the id) from the columns only on equal keys.  Every
   comparison therefore has the geometry's [compare_dim] outcome, and
   the permutation moves exactly as [Select.partition_at] moves an
   entry array under that order: every leaf holds the entries a build
   with [compare_dim] closures puts in it.  Inside a leaf the entries
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

type ('box, 'entry) tree =
  | Leaf of { mbr : 'box; entries : 'entry array; priority : int option }
    (* [priority] is the direction (0..2d-1) the leaf is extreme in, or
       [None] for an ordinary kd-leaf. *)
  | Node of { mbr : 'box; children : ('box, 'entry) tree list }

type t = (Rect.t, Entry.t) tree

type ('box, 'entry) geometry = {
  dims : int;
  coord : int -> 'entry -> float;
  id : 'entry -> int;
  box : 'entry -> 'box;
  make_box : Float.Array.t -> 'box;
  union : 'box -> 'box -> 'box;
  equal : 'box -> 'box -> bool;
  compare_dim : int -> 'entry -> 'entry -> int;
}

let planar =
  {
    dims = 2;
    coord =
      (* The fields in place, not through [Rect.coord]: the column copy
         calls this once per coordinate. *)
      (fun k e ->
        let r = e.Entry.rect in
        match k with 0 -> r.Rect.xmin | 1 -> r.Rect.ymin | 2 -> r.Rect.xmax | _ -> r.Rect.ymax);
    id = Entry.id;
    box = Entry.rect;
    make_box =
      (fun a ->
        Rect.make ~xmin:(Float.Array.get a 0) ~ymin:(Float.Array.get a 1)
          ~xmax:(Float.Array.get a 2) ~ymax:(Float.Array.get a 3));
    union = Rect.union;
    equal = Rect.equal;
    compare_dim = Entry.compare_dim;
  }

let mbr = function Leaf { mbr; _ } -> mbr | Node { mbr; _ } -> mbr

(* Comparison that makes "smallest first" mean "most extreme first" for
   each of the 2d priority directions: minimal low sides, maximal high
   sides. *)
let extreme_cmp_with g dim =
  if dim < g.dims then g.compare_dim dim else fun a b -> g.compare_dim dim b a

let extreme_cmp = extreme_cmp_with planar

(* [union] over the entries' boxes, left to right. *)
let union_all g entries =
  Array.fold_left (fun acc e -> g.union acc (g.box e)) (g.box entries.(0)) entries

(* --- the selection kernel --- *)

type columns = {
  cols : Float.Array.t array;  (* the 2d kd-coordinates, lows then highs *)
  ids : int array;
}

let columns g entries =
  let n = Array.length entries in
  let column k =
    let col = Float.Array.create n in
    for i = 0 to n - 1 do
      Float.Array.unsafe_set col i (g.coord k (Array.unsafe_get entries i))
    done;
    col
  in
  { cols = Array.init (2 * g.dims) column; ids = Array.map g.id entries }

let[@inline] fcmp col x y =
  Float.compare (Float.Array.unsafe_get col x) (Float.Array.unsafe_get col y)

(* [compare_dim]'s tie-break from the columns: the coordinates in kd
   order from column [k] on (in the plane, [Rect.compare]'s order),
   then the ids. *)
let rec tie_from cols ids k x y =
  if k = Array.length cols then Int.compare (Array.unsafe_get ids x) (Array.unsafe_get ids y)
  else
    let r = fcmp (Array.unsafe_get cols k) x y in
    if r <> 0 then r else tie_from cols ids (k + 1) x y

(* [compare_dim] of element [x] against the pivot [p], whose key in
   column [key] (that of the dimension) is [kp].  The float comparisons
   decide unless the keys are equal (or NaN, which [Float.compare]
   orders as [compare_dim] does). *)
let[@inline] compare_to c key x p kp =
  let kx = Float.Array.unsafe_get key x in
  if kx < kp then -1
  else if kx > kp then 1
  else
    let r = Float.compare kx kp in
    if r <> 0 then r else tie_from c.cols c.ids 0 x p

let[@inline] swap (perm : int array) i j =
  let tmp = Array.unsafe_get perm i in
  Array.unsafe_set perm i (Array.unsafe_get perm j);
  Array.unsafe_set perm j tmp

(* [Select.partition_at] on [perm.(lo..hi)] under [sign] times
   [compare_dim] on [key]'s dimension ([sign] -1 puts the largest
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
   follows.  [page_cmp] is that order on the columns: ascending [lo_0]
   with NaN last, then the tie-break, whose first comparison (the
   [lo_0]s again) then returns 0. *)
let[@inline] page_cmp c lo0 x y =
  let a = Float.Array.unsafe_get lo0 x and b = Float.Array.unsafe_get lo0 y in
  if a < b then -1
  else if a > b then 1
  else if a = b || (a <> a && b <> b) then tie_from c.cols c.ids 0 x y
  else if a <> a then 1
  else -1

(* Sift [perm.(lo + i)] down the max-heap [perm.(lo .. lo + n - 1)];
   [lo0] is the [lo_0] column. *)
let rec sift c lo0 perm lo i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let r = l + 1 in
    let m =
      if r < n
         && page_cmp c lo0 (Array.unsafe_get perm (lo + r)) (Array.unsafe_get perm (lo + l)) > 0
      then r
      else l
    in
    if page_cmp c lo0 (Array.unsafe_get perm (lo + m)) (Array.unsafe_get perm (lo + i)) > 0
    then begin
      swap perm (lo + i) (lo + m);
      sift c lo0 perm lo m n
    end
  end

(* Heapsort of [perm.(lo .. hi - 1)] into page order: in place, with
   no allocation, in O(n log n) comparisons. *)
let sort_page c perm lo hi =
  let n = hi - lo and lo0 = c.cols.(0) in
  for i = (n / 2) - 1 downto 0 do
    sift c lo0 perm lo i n
  done;
  for k = n - 1 downto 1 do
    swap perm lo (lo + k);
    sift c lo0 perm lo 0 k
  done

(* [Float.min] and [Float.max] for floats that are not NaN, inline (a
   call would box them): they differ from [<] only on equal zeros,
   where [-0.] is the min and [+0.] the max. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else if Float.sign_bit x then x else y
let[@inline] fmax x y = if x > y then x else if y > x then y else if Float.sign_bit x then y else x

(* The bounding box of a leaf's range, read from the columns into
   [bounds] (the lows' minima, then the highs' maxima): the bits
   [union] gives over the same entries.  False unless every low is at
   most its high, that is, on a NaN coordinate (a point box can hold
   one), which [union]'s [Float.min] propagates and [fmin] would not:
   the leaf's box is then [union]'s own. *)
let range_bounds c perm lo hi bounds =
  let d = Array.length c.cols / 2 and ok = ref true in
  for k = 0 to d - 1 do
    let lows = Array.unsafe_get c.cols k and highs = Array.unsafe_get c.cols (d + k) in
    let p = Array.unsafe_get perm lo in
    let l = ref (Float.Array.get lows p) and h = ref (Float.Array.get highs p) in
    for i = lo to hi - 1 do
      let p = Array.unsafe_get perm i in
      let x = Float.Array.unsafe_get lows p and y = Float.Array.unsafe_get highs p in
      ok := !ok && x <= y;
      l := fmin !l x;
      h := fmax !h y
    done;
    Float.Array.set bounds k !l;
    Float.Array.set bounds (d + k) !h
  done;
  !ok

(* Run the construction, calling [leaf ~priority ~mbr entries] for each
   leaf in construction order — its entries in page order, [mbr] their
   bounding box — and [node children] for each internal node.  A
   leaf's range of [perm] is final when it is handed out: later
   selections touch only the ranges after it, so sorting it changes no
   other leaf. *)
let kernel g ~b ?priority_size ~leaf ~node entries =
  if b < 1 then invalid_arg "Pseudo.build: b must be >= 1";
  (* Priority leaves default to full size b (the paper's choice); 0
     disables them entirely, degenerating to a plain 2d-dimensional
     kd-tree — the ablation baseline, essentially the structure of
     reference [2] when set to 1. *)
  let priority_size = match priority_size with Some s -> s | None -> b in
  if priority_size < 0 || priority_size > b then
    invalid_arg "Pseudo.build: priority_size outside [0, b]";
  if Array.length entries = 0 then invalid_arg "Pseudo.build: empty input";
  let c = columns g entries in
  let directions = 2 * g.dims in
  let perm = Array.init (Array.length entries) Fun.id in
  let bounds = Float.Array.make directions 0.0 in
  let leaf ?priority lo hi =
    sort_page c perm lo hi;
    let entries = Array.init (hi - lo) (fun k -> entries.(perm.(lo + k))) in
    let mbr = if range_bounds c perm lo hi bounds then g.make_box bounds else union_all g entries in
    leaf ~priority ~mbr entries
  in
  (* Peel the priority leaves off [perm.(lo..hi)]: for each direction in
     order, move the [priority_size] most extreme remaining entries to
     the front and emit them as a leaf. Returns the new [lo] and the
     reversed leaf list. *)
  let extract_priority_leaves lo hi =
    let acc = ref [] and lo = ref lo and dim = ref 0 in
    while !dim < directions && !lo < hi && priority_size > 0 do
      let k = min priority_size (hi - !lo) in
      if !lo + k < hi then
        partition c c.cols.(!dim) (if !dim < g.dims then 1 else -1) perm !lo hi (!lo + k - 1);
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
        let dim = depth mod directions in
        let mid = lo' + ((hi - lo') / 2) in
        partition c c.cols.(dim) 1 perm lo' hi mid;
        (* [mid] itself goes right so both sides are non-empty. *)
        let left = go lo' mid (depth + 1) in
        let right = go mid hi (depth + 1) in
        node (List.rev_append rev_leaves [ left; right ])
      end
    end
  in
  go 0 (Array.length entries) 0

let build_with g ?(b = 113) ?priority_size entries =
  kernel g ~b ?priority_size entries
    ~leaf:(fun ~priority ~mbr entries -> Leaf { mbr; entries; priority })
    ~node:(fun children ->
      let box =
        List.fold_left (fun acc c -> g.union acc (mbr c)) (mbr (List.hd children)) children
      in
      Node { mbr = box; children })

let build_leaves_with g ?(b = 113) ?priority_size entries =
  kernel g ~b ?priority_size entries
    ~leaf:(fun ~priority:_ ~mbr entries -> [ (mbr, entries) ])
    ~node:List.concat

let build = build_with planar
let build_leaves = build_leaves_with planar

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
let audit_with g ?(b = 113) ~root t =
  let module Audit = Prt_rtree.Audit in
  let descs = ref [] in
  let add d = descs := d :: !descs in
  let rec subtree_entries t acc =
    match t with
    | Leaf { entries; _ } -> entries :: acc
    | Node { children; _ } -> List.fold_left (fun acc c -> subtree_entries c acc) acc children
  in
  let leaf_box_ok box entries = Array.length entries = 0 || g.equal box (union_all g entries) in
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
    let cmp = extreme_cmp_with g dir in
    let worst = Array.fold_left (fun w e -> if cmp e w > 0 then e else w) entries.(0) entries in
    List.for_all (Array.for_all (fun r -> cmp worst r <= 0)) rest
  in
  let rec go where t =
    match t with
    | Leaf { mbr = box; entries; priority } ->
        (* A leaf root has nothing to be extreme against. *)
        emit_leaf where ~box ~entries ~priority ~extreme:true
    | Node { mbr = box; children } ->
        let box_ok =
          children <> []
          && g.equal box
               (List.fold_left
                  (fun acc c -> g.union acc (mbr c))
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
  go root t;
  Audit.check_pseudo ~degree_limit:((2 * g.dims) + 2) ~leaf_capacity:b (List.rev !descs)

let audit ?b t = audit_with planar ?b ~root:"pseudo" t
