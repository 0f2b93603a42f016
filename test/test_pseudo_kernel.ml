(* The pseudo-PR-tree's columnar selection kernel against a
   closure-based construction, reduced to its leaf list: quickselect
   over boxed entries, comparing through [Entry.compare_dim] closures,
   each leaf then sorted into page order with [Node.page_compare].
   For every input and every parameter the kernel must give the same
   leaves in the same order, with the same entries inside each leaf in
   page order, the same priority directions, and each leaf's bounding
   box bit for bit as [Rect.union_map] computes it; that is what makes
   a PR-tree file a function of its input set.  The same holds in d =
   1, 3 and 4 against the boxed d-dimensional construction the kernel
   replaced there. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Select = Prt_util.Select
module Pseudo = Prt_prtree.Pseudo

let extreme_cmp dim =
  if dim < 2 then Entry.compare_dim dim else fun a b -> Entry.compare_dim dim b a

(* (priority, entries) for every leaf, in construction order, the
   entries of each leaf sorted into page order (a copy: [arr] keeps the
   order the selections left). *)
let oracle_leaves ~b ~priority_size entries =
  let arr = Array.copy entries in
  let out = ref [] in
  let emit ?priority lo hi =
    let leaf = Array.sub arr lo (hi - lo) in
    Array.sort Node.page_compare leaf;
    out := (priority, leaf) :: !out
  in
  let rec go lo hi depth =
    if hi - lo <= b then emit lo hi
    else begin
      let lo = ref lo and dim = ref 0 in
      while !dim < 4 && !lo < hi && priority_size > 0 do
        let k = min priority_size (hi - !lo) in
        Select.smallest_to_front ~cmp:(extreme_cmp !dim) arr !lo hi k;
        emit ~priority:!dim !lo (!lo + k);
        lo := !lo + k;
        incr dim
      done;
      let lo = !lo in
      if lo >= hi then ()
      else if hi - lo <= b then emit lo hi
      else begin
        let dim = depth mod 4 in
        let mid = lo + ((hi - lo) / 2) in
        Select.partition_at ~cmp:(Entry.compare_dim dim) arr lo hi mid;
        go lo mid (depth + 1);
        go mid hi (depth + 1)
      end
    end
  in
  go 0 (Array.length arr) 0;
  List.rev !out

(* --- inputs, the tie-heavy ones included --- *)

let rect_at rng ~snap =
  let coord () =
    let v = Random.State.float rng 1.0 in
    if snap then Float.round (v *. 8.0) /. 8.0 else v
  in
  let x0 = coord () and x1 = coord () and y0 = coord () and y1 = coord () in
  Rect.of_corners (x0, y0) (x1, y1)

let make n f = Array.init n (fun i -> Entry.make (f i) i)

let datasets n =
  let rng = Random.State.make [| n; 17 |] in
  let random = make n (fun _ -> rect_at rng ~snap:false) in
  (* Every rectangle three times, under distinct ids. *)
  let repeated = make n (fun i -> Entry.rect random.(i / 3)) in
  let shared_xmin =
    make n (fun i ->
        let r = Entry.rect random.(i) in
        Rect.make ~xmin:0.0 ~ymin:(Rect.ymin r) ~xmax:(Rect.xmax r) ~ymax:(Rect.ymax r))
  in
  let points =
    make n (fun _ -> Rect.point (Random.State.float rng 1.0) (Random.State.float rng 1.0))
  in
  (* Horizontal and vertical segments on a coarse grid: many equal
     keys in every dimension. *)
  let segments =
    make n (fun i ->
        let r = rect_at rng ~snap:true in
        let xmax = if i mod 2 = 0 then Rect.xmax r else Rect.xmin r in
        let ymax = if i mod 2 = 0 then Rect.ymin r else Rect.ymax r in
        Rect.make ~xmin:(Rect.xmin r) ~ymin:(Rect.ymin r) ~xmax ~ymax)
  in
  (* -0.0 beside 0.0: equal under every comparison, distinct bits. *)
  let zeros =
    make n (fun _ ->
        let z () = if Random.State.bool rng then -0.0 else 0.0 in
        let hi () = if Random.State.int rng 4 = 0 then z () else Random.State.float rng 1.0 in
        Rect.make ~xmin:(z ()) ~ymin:(z ()) ~xmax:(hi ()) ~ymax:(hi ()))
  in
  [
    ("random", random);
    ("repeated", repeated);
    ("shared xmin", shared_xmin);
    ("points", points);
    ("segments", segments);
    ("signed zeros", zeros);
  ]

(* --- the comparison --- *)

let ids leaves = List.map (fun (_, es) -> Array.to_list (Array.map Entry.id es)) leaves

(* Physical identity: the kernel hands out the input's own entries, so
   an equal-looking entry in the wrong place (-0.0 for 0.0) fails. *)
let same_entries a b =
  List.length a = List.length b
  && List.for_all2
       (fun (_, x) (_, y) -> Array.length x = Array.length y && Array.for_all2 ( == ) x y)
       a b

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The box [build_leaves] gives, against [Rect.union_map] over the
   leaf, bit for bit (signed zeros included). *)
let exact_mbr (mbr, entries) =
  let r = Rect.union_map ~f:Entry.rect entries in
  same_bits (Rect.xmin mbr) (Rect.xmin r)
  && same_bits (Rect.ymin mbr) (Rect.ymin r)
  && same_bits (Rect.xmax mbr) (Rect.xmax r)
  && same_bits (Rect.ymax mbr) (Rect.ymax r)

let check_against_oracle ~label ~b ~priority_size entries =
  let expected = oracle_leaves ~b ~priority_size entries in
  let tree =
    Pseudo.fold_leaves
      (Pseudo.build ~b ~priority_size entries)
      ~init:[]
      ~f:(fun acc ~entries ~priority -> (priority, entries) :: acc)
    |> List.rev
  in
  let boxed = Pseudo.build_leaves ~b ~priority_size entries in
  let flat = List.map (fun (_, es) -> (None, es)) boxed in
  let label = Printf.sprintf "%s b=%d priority_size=%d" label b priority_size in
  Alcotest.(check (list (list int))) (label ^ ": build leaves") (ids expected) (ids tree);
  Alcotest.(check bool) (label ^ ": build entries") true (same_entries expected tree);
  Alcotest.(check bool)
    (label ^ ": build leaves in page order") true
    (List.for_all (fun (_, es) -> Node.in_page_order es) tree);
  Alcotest.(check (list (option int)))
    (label ^ ": priority directions") (List.map fst expected) (List.map fst tree);
  Alcotest.(check (list (list int))) (label ^ ": build_leaves") (ids expected) (ids flat);
  Alcotest.(check bool) (label ^ ": build_leaves entries") true (same_entries expected flat);
  Alcotest.(check bool) (label ^ ": build_leaves boxes") true (List.for_all exact_mbr boxed)

let priority_sizes b = List.sort_uniq Int.compare [ 0; 1; b / 2; b ]

let test_small_inputs () =
  List.iter
    (fun (label, entries) ->
      List.iter
        (fun b ->
          List.iter
            (fun priority_size -> check_against_oracle ~label ~b ~priority_size entries)
            (priority_sizes b))
        [ 1; 2; 14; 113 ])
    (datasets 700)

(* Deep kd recursion: many levels of median splits below the priority
   leaves. *)
let test_large_inputs () =
  List.iter
    (fun (label, entries) ->
      List.iter
        (fun b ->
          List.iter
            (fun priority_size -> check_against_oracle ~label ~b ~priority_size entries)
            [ 0; b ])
        [ 2; 113 ])
    (List.filter
       (fun (l, _) -> List.mem l [ "random"; "repeated"; "signed zeros" ])
       (datasets 20_000))

let test_invalid_arguments () =
  let entries = Helpers.random_entries ~n:50 ~seed:1 in
  let raises name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  List.iter
    (fun (kind, build) ->
      raises (kind ^ ": b < 1") (fun () -> build ~b:0 ?priority_size:None entries);
      raises (kind ^ ": priority_size < 0") (fun () ->
          build ~b:14 ?priority_size:(Some (-1)) entries);
      raises (kind ^ ": priority_size > b") (fun () ->
          build ~b:14 ?priority_size:(Some 15) entries);
      raises (kind ^ ": empty input") (fun () -> build ~b:14 ?priority_size:None [||]))
    [
      ("build", fun ~b ?priority_size es -> ignore (Pseudo.build ~b ?priority_size es));
      ( "build_leaves",
        fun ~b ?priority_size es -> ignore (Pseudo.build_leaves ~b ?priority_size es) );
    ]

(* --- input order ---

   Every priority leaf and kd half is a set fixed by one total order, so
   the leaves cannot depend on the order the entries come in, whatever
   the selection does with it.  Sorted input is the most biased sample
   Floyd–Rivest's contiguous sampling can draw: each of the four sorts
   puts the extremes of one direction at one end of every range. *)

(* Every leaf with its priority direction and box, in construction
   order. *)
let rec tree_leaves = function
  | Pseudo.Leaf { mbr; entries; priority } -> [ (priority, (mbr, entries)) ]
  | Pseudo.Node { children; _ } -> List.concat_map tree_leaves children

(* Ids in construction order, priority directions and box bits. *)
let leaf_signature ~b entries =
  let leaves = tree_leaves (Pseudo.build ~b entries) in
  ( List.map (fun (p, (_, es)) -> (p, Array.to_list (Array.map Entry.id es))) leaves,
    List.map
      (fun (_, (mbr, _)) -> List.map (fun k -> Int64.bits_of_float (Rect.coord k mbr)) [ 0; 1; 2; 3 ])
      leaves )

let test_input_order () =
  let n = 20_000 in
  let inputs = datasets n in
  List.iter
    (fun label ->
      let base = List.assoc label inputs in
      let sorted dim =
        let a = Array.copy base in
        Array.stable_sort (Entry.compare_dim dim) a;
        a
      in
      let reversed = Array.of_list (List.rev (Array.to_list base)) in
      List.iter
        (fun b ->
          let expected = leaf_signature ~b base in
          let previous_build =
            Array.concat (List.map snd (Pseudo.build_leaves ~b base))
          in
          List.iter
            (fun (order, entries) ->
              let got = leaf_signature ~b entries in
              let name = Printf.sprintf "%s b=%d %s" label b order in
              Alcotest.(check (list (pair (option int) (list int))))
                (name ^ ": leaves and directions") (fst expected) (fst got);
              Alcotest.(check bool) (name ^ ": box bits") true (snd expected = snd got))
            [
              ("sorted by xmin", sorted 0);
              ("sorted by ymin", sorted 1);
              ("sorted by xmax", sorted 2);
              ("sorted by ymax", sorted 3);
              ("reversed", reversed);
              ("in a previous build's leaf order", previous_build);
            ])
        [ 113; 14 ])
    [ "random"; "segments"; "repeated" ]

(* The entry wrapper copies each entry's coordinates into the kernel's
   columns without boxing them: what is left is the leaves it hands
   back (an array and a box per leaf). *)
let test_build_leaves_allocation () =
  let entries = List.assoc "random" (datasets 20_000) in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Pseudo.build_leaves ~b:113 entries));
  Gc.minor ();
  let per_entry = (Gc.minor_words () -. w0) /. float_of_int (Array.length entries) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per entry (at most 3)" per_entry)
    true (per_entry <= 3.0)

(* --- every other dimension --- *)

module Hyperrect = Prt_geom.Hyperrect
module Entry_nd = Prt_ndtree.Entry_nd
module Node_nd = Prt_ndtree.Node_nd
module Pseudo_nd = Prt_ndtree.Pseudo_nd

(* The boxed d-dimensional construction: quickselect over [Entry_nd.t]s
   under [Entry_nd.compare_dim] and the extreme order (low sides
   smallest first, high sides largest first), 2d priority leaves of [b]
   per node, each leaf then sorted into page order with
   [Node_nd.page_compare]. *)
let oracle_leaves_nd ~b ~dims entries =
  let extreme_cmp dim =
    if dim < dims then Entry_nd.compare_dim dim else fun x y -> Entry_nd.compare_dim dim y x
  in
  let arr = Array.copy entries in
  let out = ref [] in
  let emit ?priority lo hi =
    let leaf = Array.sub arr lo (hi - lo) in
    Array.sort Node_nd.page_compare leaf;
    out := (priority, leaf) :: !out
  in
  let rec go lo hi depth =
    if hi - lo <= b then emit lo hi
    else begin
      let lo = ref lo and dim = ref 0 in
      while !dim < 2 * dims && !lo < hi do
        let k = min b (hi - !lo) in
        Select.smallest_to_front ~cmp:(extreme_cmp !dim) arr !lo hi k;
        emit ~priority:!dim !lo (!lo + k);
        lo := !lo + k;
        incr dim
      done;
      let lo = !lo in
      if lo >= hi then ()
      else if hi - lo <= b then emit lo hi
      else begin
        let dim = depth mod (2 * dims) in
        let mid = lo + ((hi - lo) / 2) in
        Select.partition_at ~cmp:(Entry_nd.compare_dim dim) arr lo hi mid;
        go lo mid (depth + 1);
        go mid hi (depth + 1)
      end
    end
  in
  go 0 (Array.length arr) 0;
  List.rev !out

let datasets_nd ~dims n =
  let rng = Random.State.make [| n; dims; 19 |] in
  let make f = Array.init n (fun i -> Entry_nd.make (f i) i) in
  let coords f = Array.init dims f in
  let random =
    make (fun _ ->
        let lo = coords (fun _ -> Random.State.float rng 1.0) in
        Hyperrect.make ~lo ~hi:(Array.map (fun v -> v +. Random.State.float rng 0.3) lo))
  in
  (* Every box three times, under distinct ids. *)
  let repeated = make (fun i -> Entry_nd.box random.(i / 3)) in
  let shared_lo0 =
    make (fun i ->
        let box = Entry_nd.box random.(i) in
        Hyperrect.make
          ~lo:(coords (fun k -> if k = 0 then 0.0 else Hyperrect.lo box k))
          ~hi:(coords (Hyperrect.hi box)))
  in
  let points = make (fun _ -> Hyperrect.point (coords (fun _ -> Random.State.float rng 1.0))) in
  (* -0.0 beside 0.0: equal under every comparison, distinct bits. *)
  let zeros =
    make (fun _ ->
        let z () = if Random.State.bool rng then -0.0 else 0.0 in
        Hyperrect.make ~lo:(coords (fun _ -> z ()))
          ~hi:(coords (fun _ -> if Random.State.int rng 4 = 0 then z () else Random.State.float rng 1.0)))
  in
  [
    ("random", random);
    ("repeated", repeated);
    ("shared lo0", shared_lo0);
    ("points", points);
    ("signed zeros", zeros);
  ]

let ids_nd leaves = List.map (fun (_, es) -> Array.to_list (Array.map Entry_nd.id es)) leaves

(* The box against [Hyperrect.union_map] over the leaf, bit for bit. *)
let exact_box_nd (box, entries) =
  let u = Hyperrect.union_map ~f:Entry_nd.box entries in
  Hyperrect.dims box = Hyperrect.dims u
  && List.for_all
       (fun k ->
         same_bits (Hyperrect.lo box k) (Hyperrect.lo u k)
         && same_bits (Hyperrect.hi box k) (Hyperrect.hi u k))
       (List.init (Hyperrect.dims u) Fun.id)

let check_nd_against_oracle ~label ~b ~dims entries =
  let expected = oracle_leaves_nd ~b ~dims entries in
  let tree = tree_leaves (Pseudo_nd.build ~b ~dims entries) in
  let built = List.map (fun (p, (_, es)) -> (p, es)) tree in
  let flat = List.map (fun (_, es) -> (None, es)) (Pseudo_nd.build_leaves ~b ~dims entries) in
  let label = Printf.sprintf "%s d=%d b=%d" label dims b in
  Alcotest.(check (list (list int))) (label ^ ": build leaves") (ids_nd expected) (ids_nd built);
  Alcotest.(check bool) (label ^ ": build entries") true (same_entries expected built);
  Alcotest.(check bool)
    (label ^ ": build leaves in page order") true
    (List.for_all (fun (_, es) -> Node_nd.in_page_order es) built);
  Alcotest.(check (list (option int)))
    (label ^ ": priority directions") (List.map fst expected) (List.map fst built);
  Alcotest.(check bool)
    (label ^ ": build leaf boxes") true
    (List.for_all (fun (_, leaf) -> exact_box_nd leaf) tree);
  Alcotest.(check (list (list int))) (label ^ ": build_leaves") (ids_nd expected) (ids_nd flat);
  Alcotest.(check bool) (label ^ ": build_leaves entries") true (same_entries expected flat);
  Alcotest.(check bool)
    (label ^ ": build_leaves boxes") true
    (List.for_all exact_box_nd (Pseudo_nd.build_leaves ~b ~dims entries))

let test_other_dimensions () =
  List.iter
    (fun dims ->
      List.iter
        (fun (label, entries) ->
          List.iter (fun b -> check_nd_against_oracle ~label ~b ~dims entries) [ 1; 2; 9; 113 ])
        (datasets_nd ~dims 700);
      List.iter
        (fun (label, entries) ->
          List.iter (fun b -> check_nd_against_oracle ~label ~b ~dims entries) [ 2; 113 ])
        (List.filter (fun (l, _) -> l = "random" || l = "signed zeros") (datasets_nd ~dims 5000)))
    [ 1; 3; 4 ]

let suite =
  [
    Alcotest.test_case "kernel equals the closure build (700 entries)" `Quick test_small_inputs;
    Alcotest.test_case "kernel equals the closure build (20k)" `Quick test_large_inputs;
    Alcotest.test_case "kernel rejects invalid arguments" `Quick test_invalid_arguments;
    Alcotest.test_case "kernel equals the boxed build (d = 1, 3, 4)" `Quick test_other_dimensions;
    Alcotest.test_case "leaves do not depend on input order" `Quick test_input_order;
    Alcotest.test_case "build_leaves copies entries without boxing" `Quick
      test_build_leaves_allocation;
  ]
