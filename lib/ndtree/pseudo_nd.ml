(* The d-dimensional pseudo-PR-tree (Section 2.3): a 2d-dimensional
   kd-tree over boxes-as-points, each node carrying 2d priority leaves —
   the b boxes most extreme in each of the 2d standard directions
   (minimal low side per dimension, then maximal high side per
   dimension), each drawn from the remainder. Window queries visit
   O((N/b)^(1-1/d) + T/b) nodes (the Theorem 2 analysis).  The tree and
   its construction are [Prt_prtree.Pseudo]'s, instantiated on
   [Hyperrect] boxes and [Entry_nd] entries: the columnar kernel runs
   on the 2d coordinate columns. *)

module Hyperrect = Prt_geom.Hyperrect
module Pseudo = Prt_prtree.Pseudo

type t = (Hyperrect.t, Entry_nd.t) Pseudo.tree

let geometry ~dims =
  {
    Pseudo.dims;
    store = (fun e cols i -> Hyperrect.write_columns e.Entry_nd.box cols i);
    id = Entry_nd.id;
    box = Entry_nd.box;
    make_box =
      (fun a ->
        Hyperrect.make
          ~lo:(Array.init dims (Float.Array.get a))
          ~hi:(Array.init dims (fun k -> Float.Array.get a (dims + k))));
    union = Hyperrect.union;
    equal = Hyperrect.equal;
    compare_dim = Entry_nd.compare_dim;
  }

let check_dims ~dims entries =
  Array.iter
    (fun e ->
      if Hyperrect.dims (Entry_nd.box e) <> dims then
        invalid_arg "Pseudo_nd.build: dimension mismatch")
    entries

let build ?b ~dims entries =
  check_dims ~dims entries;
  Pseudo.build_with (geometry ~dims) ?b entries

let build_leaves ~b ~dims entries =
  check_dims ~dims entries;
  Pseudo.build_leaves_with (geometry ~dims) ~b entries

let columns ~dims entries =
  check_dims ~dims entries;
  Pseudo.columns (geometry ~dims) entries

let leaves = Pseudo.leaves
let size = Pseudo.size
