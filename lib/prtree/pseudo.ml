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
   are peeled off with expected-linear selection, and the median split
   is a selection too, so building is O(N log N) expected.  The kernel
   works on {!columns}: the 2d coordinates in unboxed [Float.Array]
   columns, in kd order (lows, then highs: xmin, ymin, xmax, ymax in
   the plane), beside an int column of ids and, when the caller holds
   entries, one of their origins.  Selection is Floyd–Rivest's,
   specialised to one key column and a direction: it compares keys
   inline, reads the rest of the entry order (every column in kd order,
   then the id) only on equal keys, and permutes every column in
   lockstep.  Every priority leaf and kd half is the set of the most
   extreme entries under that total order, so no selection algorithm
   can change the leaves: they are the ones a build with [compare_dim]
   closures gives.  Each leaf is a position range; inside it the
   entries go in page order ({!Prt_rtree.Node.page_compare}) by sorting
   a small index array ({!Prt_rtree.Node.sort_columns}), and its
   bounding box is read from the columns.  {!leaf_ends} hands the
   ranges to the PR-tree's stages ({!Prtree.load_columns}), which write
   each page straight from the columns; {!build_leaves} and {!build},
   over entry arrays, copy the entries in and hand them back out leaf
   by leaf, {!build} wrapped in the tree for Lemma 2, the audit and the
   ablation.  The I/O-efficient external construction lives in
   {!Ext_build}. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry

type ('box, 'entry) tree =
  | Leaf of { mbr : 'box; entries : 'entry array; priority : int option }
    (* [priority] is the direction (0..2d-1) the leaf is extreme in, or
       [None] for an ordinary kd-leaf. *)
  | Node of { mbr : 'box; children : ('box, 'entry) tree list }

type t = (Rect.t, Entry.t) tree

type ('box, 'entry) geometry = {
  dims : int;
  store : 'entry -> Float.Array.t array -> int -> unit;
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
    store =
      (* The fields in place, not through accessors: a float returned
         across modules is boxed. *)
      (fun e cols i ->
        let r = e.Entry.rect in
        Float.Array.set cols.(0) i r.Rect.xmin;
        Float.Array.set cols.(1) i r.Rect.ymin;
        Float.Array.set cols.(2) i r.Rect.xmax;
        Float.Array.set cols.(3) i r.Rect.ymax);
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
  cols : Float.Array.t array;
  ids : int array;
  origin : int array;
  len : int;
}

let copy g ~origin entries =
  let n = Array.length entries in
  let cols = Array.init (2 * g.dims) (fun _ -> Float.Array.create n) in
  let ids = Array.make n 0 in
  for i = 0 to n - 1 do
    let e = Array.unsafe_get entries i in
    g.store e cols i;
    Array.unsafe_set ids i (g.id e)
  done;
  { cols; ids; origin = (if origin then Array.init n Fun.id else [||]); len = n }

let columns g entries = copy g ~origin:false entries

(* Swap positions [i] and [j] of every column in lockstep: the 2d
   coordinate columns, the ids and the origins. *)
let[@inline] swap_col col i j =
  let t = Float.Array.unsafe_get col i in
  Float.Array.unsafe_set col i (Float.Array.unsafe_get col j);
  Float.Array.unsafe_set col j t

let swap c i j =
  let cols = c.cols in
  if Array.length cols = 4 then begin
    swap_col (Array.unsafe_get cols 0) i j;
    swap_col (Array.unsafe_get cols 1) i j;
    swap_col (Array.unsafe_get cols 2) i j;
    swap_col (Array.unsafe_get cols 3) i j
  end
  else
    for k = 0 to Array.length cols - 1 do
      swap_col (Array.unsafe_get cols k) i j
    done;
  let ids = c.ids in
  let t = Array.unsafe_get ids i in
  Array.unsafe_set ids i (Array.unsafe_get ids j);
  Array.unsafe_set ids j t;
  let o = c.origin in
  if Array.length o > 0 then begin
    let t = Array.unsafe_get o i in
    Array.unsafe_set o i (Array.unsafe_get o j);
    Array.unsafe_set o j t
  end

(* A selection's pivot, copied out of the columns: the swaps move it. *)
type pivot = { keys : Float.Array.t; mutable id : int }

let load_pivot c p x =
  for k = 0 to Array.length c.cols - 1 do
    Float.Array.unsafe_set p.keys k (Float.Array.unsafe_get (Array.unsafe_get c.cols k) x)
  done;
  p.id <- Array.unsafe_get c.ids x

(* [compare_dim]'s tie-break of position [x] against the pivot: the
   coordinates in kd order from column [k] on (in the plane,
   [Rect.compare]'s order), then the ids. *)
let rec tie c p k x =
  if k = Array.length c.cols then Int.compare (Array.unsafe_get c.ids x) p.id
  else
    let r =
      Float.compare
        (Float.Array.unsafe_get (Array.unsafe_get c.cols k) x)
        (Float.Array.unsafe_get p.keys k)
    in
    if r <> 0 then r else tie c p (k + 1) x

(* [compare_dim] of position [x] against the pivot on column [key]
   ([col]).  The float comparisons decide unless the keys are equal (or
   NaN, which [Float.compare] orders as [compare_dim] does). *)
let[@inline] compare_to c p col key x =
  let kx = Float.Array.unsafe_get col x and kp = Float.Array.unsafe_get p.keys key in
  if kx < kp then -1
  else if kx > kp then 1
  else
    let r = Float.compare kx kp in
    if r <> 0 then r else tie c p 0 x

(* Floyd–Rivest selection on positions [left .. right] under [sign]
   times [compare_dim] on column [key] ([sign] -1 puts the largest
   first): afterwards position [k] holds the entry of its rank, the
   entries before it precede it and the entries after it follow it.  A
   range above 600 entries first selects [k] within a sample around
   its expected place, so the partition that follows is by a pivot
   close to the target and leaves a short range to finish: about n +
   min(k, n - k) comparisons on n entries, against a multiple of n for
   quickselect.  Every leaf and kd half is the set of the most extreme
   entries under one total order, so any selection gives the same
   leaves. *)
let rec select c p key sign left right k =
  let col = Array.unsafe_get c.cols key in
  let left = ref left and right = ref right in
  while !right > !left do
    if !right - !left > 600 then begin
      let n = float_of_int (!right - !left + 1) and i = float_of_int (k - !left + 1) in
      let z = log n in
      let s = 0.5 *. exp (2.0 *. z /. 3.0) in
      let sd = 0.5 *. sqrt (z *. s *. (n -. s) /. n) in
      let sd = if 2.0 *. i < n then -.sd else if 2.0 *. i > n then sd else 0.0 in
      let kf = float_of_int k in
      let lo = max !left (int_of_float (floor (kf -. (i *. s /. n) +. sd))) in
      let hi = min !right (int_of_float (floor (kf +. ((n -. i) *. s /. n) +. sd))) in
      select c p key sign lo hi k
    end;
    (* Partition [left .. right] around the entry at [k]. *)
    load_pivot c p k;
    let i = ref !left and j = ref !right in
    swap c !left k;
    if sign * compare_to c p col key !right > 0 then swap c !right !left;
    while !i < !j do
      swap c !i !j;
      incr i;
      decr j;
      while sign * compare_to c p col key !i < 0 do
        incr i
      done;
      while sign * compare_to c p col key !j > 0 do
        decr j
      done
    done;
    if compare_to c p col key !left = 0 then swap c !left !j
    else begin
      incr j;
      swap c !j !right
    end;
    if !j <= k then left := !j + 1;
    if k <= !j then right := !j - 1
  done

(* [Float.min] and [Float.max] for floats that are not NaN, inline (a
   call would box them): they differ from [<] only on equal zeros,
   where [-0.] is the min and [+0.] the max. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else if Float.sign_bit x then x else y
let[@inline] fmax x y = if x > y then x else if y > x then y else if Float.sign_bit x then y else x

(* The leaf's bounding box, read from the columns into [bounds] (the
   lows' minima, then the highs' maxima): the bits [union] gives over
   the leaf's entries in page order.  [fmin] and [fmax] give them
   unless a low exceeds its high or is NaN (a point box can hold one);
   then [union]'s own [Float.min] and [Float.max], which propagate the
   NaN, are folded in page order, and the result is false. *)
let leaf_bounds c order n bounds =
  let d = Array.length c.cols / 2 and ok = ref true in
  for k = 0 to d - 1 do
    let lows = Array.unsafe_get c.cols k and highs = Array.unsafe_get c.cols (d + k) in
    let p = order.(0) in
    let l = ref (Float.Array.get lows p) and h = ref (Float.Array.get highs p) in
    for i = 0 to n - 1 do
      let p = Array.unsafe_get order i in
      let x = Float.Array.unsafe_get lows p and y = Float.Array.unsafe_get highs p in
      ok := !ok && x <= y;
      l := fmin !l x;
      h := fmax !h y
    done;
    Float.Array.set bounds k !l;
    Float.Array.set bounds (d + k) !h
  done;
  if not !ok then
    for k = 0 to (2 * d) - 1 do
      let col = c.cols.(k) and f = if k < d then Float.min else Float.max in
      let acc = ref (Float.Array.get col order.(0)) in
      for i = 1 to n - 1 do
        acc := f !acc (Float.Array.get col order.(i))
      done;
      Float.Array.set bounds k !acc
    done;
  !ok

let page_leaf c ~lo ~hi ~order ~scratch ~bounds =
  let n = hi - lo in
  for k = 0 to n - 1 do
    order.(k) <- lo + k
  done;
  Prt_rtree.Node.sort_columns c.cols c.ids order ~scratch n;
  leaf_bounds c order n bounds

(* Run the construction on [c], calling [leaf ~priority lo hi] for each
   leaf (positions [lo .. hi - 1]) in construction order and [node
   children] for each internal node.  Leaves come out left to right: a
   leaf's range is final when it is handed out, since later selections
   touch only the positions after it. *)
let kernel ~b ?priority_size ~leaf ~node c =
  if b < 1 then invalid_arg "Pseudo.build: b must be >= 1";
  (* Priority leaves default to full size b (the paper's choice); 0
     disables them entirely, degenerating to a plain 2d-dimensional
     kd-tree — the ablation baseline, essentially the structure of
     reference [2] when set to 1. *)
  let priority_size = match priority_size with Some s -> s | None -> b in
  if priority_size < 0 || priority_size > b then
    invalid_arg "Pseudo.build: priority_size outside [0, b]";
  if c.len <= 0 then invalid_arg "Pseudo.build: empty input";
  (* The selection reads and swaps the columns unchecked. *)
  let directions = Array.length c.cols in
  if
    directions = 0 || directions mod 2 <> 0 || Array.length c.ids < c.len
    || Array.exists (fun col -> Float.Array.length col < c.len) c.cols
    || (Array.length c.origin > 0 && Array.length c.origin < c.len)
  then invalid_arg "Pseudo.build: columns shorter than their length or not 2d";
  let p = { keys = Float.Array.make directions 0.0; id = 0 } in
  (* Peel the priority leaves off positions [lo .. hi - 1]: for each
     direction in order, move the [priority_size] most extreme
     remaining entries to the front and emit them as a leaf. Returns the
     new [lo] and the reversed leaf list. *)
  let extract_priority_leaves lo hi =
    let acc = ref [] and lo = ref lo and dim = ref 0 in
    while !dim < directions && !lo < hi && priority_size > 0 do
      let k = min priority_size (hi - !lo) in
      if !lo + k < hi then
        select c p !dim (if 2 * !dim < directions then 1 else -1) !lo (hi - 1) (!lo + k - 1);
      acc := leaf ~priority:(Some !dim) !lo (!lo + k) :: !acc;
      lo := !lo + k;
      incr dim
    done;
    (!lo, !acc)
  in
  let rec go lo hi depth =
    if hi - lo <= b then leaf ~priority:None lo hi
    else begin
      let lo', rev_leaves = extract_priority_leaves lo hi in
      if lo' >= hi then node (List.rev rev_leaves)
      else if hi - lo' <= b then
        (* The remainder fits a single leaf: no kd split needed. *)
        node (List.rev_append rev_leaves [ leaf ~priority:None lo' hi ])
      else begin
        (* kd median split of the remainder, cycling the dimension. *)
        let dim = depth mod directions in
        let mid = lo' + ((hi - lo') / 2) in
        select c p dim 1 lo' (hi - 1) mid;
        (* [mid] itself goes right so both sides are non-empty. *)
        let left = go lo' mid (depth + 1) in
        let right = go mid hi (depth + 1) in
        node (List.rev_append rev_leaves [ left; right ])
      end
    end
  in
  go 0 c.len 0

let leaf_ends ~b ?priority_size c =
  let ends = ref [] in
  kernel ~b ?priority_size c ~node:ignore ~leaf:(fun ~priority:_ _ hi -> ends := hi :: !ends);
  Array.of_list (List.rev !ends)

(* The kernel over an entry array: the entries copied into columns with
   their origins, each leaf handed out as its entries in page order and
   its box. *)
let kernel_entries g ~b ?priority_size ~leaf ~node entries =
  let c = copy g ~origin:true entries in
  let order = Array.make (max 0 (min b c.len)) 0 in
  let scratch = Array.make (Array.length order) 0 and bounds = Float.Array.make (2 * g.dims) 0.0 in
  kernel ~b ?priority_size c ~node ~leaf:(fun ~priority lo hi ->
      let ok = page_leaf c ~lo ~hi ~order ~scratch ~bounds in
      let leaf_entries = Array.init (hi - lo) (fun k -> entries.(c.origin.(order.(k)))) in
      let mbr = if ok then g.make_box bounds else union_all g leaf_entries in
      leaf ~priority ~mbr leaf_entries)

let build_with g ?(b = 113) ?priority_size entries =
  kernel_entries g ~b ?priority_size entries
    ~leaf:(fun ~priority ~mbr entries -> Leaf { mbr; entries; priority })
    ~node:(fun children ->
      let box =
        List.fold_left (fun acc c -> g.union acc (mbr c)) (mbr (List.hd children)) children
      in
      Node { mbr = box; children })

let build_leaves_with g ?(b = 113) ?priority_size entries =
  kernel_entries g ~b ?priority_size entries
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
