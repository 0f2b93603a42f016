(* The paged d-dimensional R-tree: window queries with per-level visit
   counts and structural validation, mirroring the 2-D Rtree. *)

module Hyperrect = Prt_geom.Hyperrect
module Pager = Prt_storage.Pager
module Buffer_pool = Prt_storage.Buffer_pool

type t = {
  pool : Buffer_pool.t;
  dims : int;
  mutable root : int;
  mutable height : int;
  mutable count : int;
}

type query_stats = {
  mutable internal_visited : int;
  mutable leaf_visited : int;
  mutable matched : int;
}

let pool t = t.pool
let pager t = Buffer_pool.pager t.pool
let dims t = t.dims
let root t = t.root
let height t = t.height
let count t = t.count
let page_size t = Pager.page_size (pager t)
let capacity t = Node_nd.capacity ~page_size:(page_size t) ~dims:t.dims

let set_root t ~root ~height =
  t.root <- root;
  t.height <- height

let set_count t count = t.count <- count

let read_node t id = Node_nd.decode ~dims:t.dims (Buffer_pool.read t.pool id)

let write_node t id node =
  Buffer_pool.write t.pool id (Node_nd.encode ~page_size:(page_size t) ~dims:t.dims node)

let alloc_node t node =
  let id = Buffer_pool.alloc t.pool in
  write_node t id node;
  id

let create_empty ~dims pool =
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let root = Buffer_pool.alloc pool in
  Buffer_pool.write pool root (Node_nd.encode ~page_size ~dims (Node_nd.make Node_nd.Leaf [||]));
  { pool; dims; root; height = 1; count = 0 }

let of_root ~pool ~dims ~root ~height ~count = { pool; dims; root; height; count }

(* Zero-copy descent, like the 2-D [Rtree.query]: pages are scanned in
   place through the {!Node_nd} cursors, so entries failing the window
   test allocate nothing.  The descent itself runs on a preallocated
   per-domain stack (no recursion, no per-node closure); children are
   pushed in entry order and the fresh segment reversed in place, so
   pages pop in exactly the old recursive preorder.

   [f] runs mid-descent, so a query it issues on this domain starts its
   own descent above [top], the outer descent's stack pointer during the
   leaf scan, and puts [top] back when it returns: the pages still
   pending below are left alone.  [ids] is always read through [st],
   since a nested descent may have grown it. *)
type stack = { mutable ids : int array; mutable top : int }

let stack_key = Domain.DLS.new_key (fun () -> { ids = Array.make 64 0; top = 0 })

let query t window ~f =
  if Hyperrect.dims window <> t.dims then invalid_arg "Rtree_nd.query: dimension mismatch";
  let stats = { internal_visited = 0; leaf_visited = 0; matched = 0 } in
  let dims = t.dims in
  let st = Domain.DLS.get stack_key in
  let base = st.top in
  let sp = ref base in
  let push id =
    (if !sp = Array.length st.ids then begin
       let grown = Array.make (2 * Array.length st.ids) 0 in
       Array.blit st.ids 0 grown 0 !sp;
       st.ids <- grown
     end);
    st.ids.(!sp) <- id;
    incr sp
  in
  push t.root;
  Fun.protect
    ~finally:(fun () -> st.top <- base)
    (fun () ->
      while !sp > base do
        decr sp;
        let buf = Buffer_pool.read t.pool st.ids.(!sp) in
        match Node_nd.page_kind buf with
        | Node_nd.Leaf ->
            stats.leaf_visited <- stats.leaf_visited + 1;
            st.top <- !sp;
            stats.matched <- stats.matched + Node_nd.iter_rects ~dims buf window ~f
        | Node_nd.Internal ->
            stats.internal_visited <- stats.internal_visited + 1;
            let sp0 = !sp in
            Node_nd.iter_children ~dims buf window ~f:push;
            let ids = st.ids in
            let i = ref sp0 and j = ref (!sp - 1) in
            while !i < !j do
              let tmp = ids.(!i) in
              ids.(!i) <- ids.(!j);
              ids.(!j) <- tmp;
              incr i;
              decr j
            done
      done;
      stats)

let query_list t window =
  let acc = ref [] in
  let stats = query t window ~f:(fun e -> acc := e :: !acc) in
  (List.rev !acc, stats)

let query_count t window = query t window ~f:(fun _ -> ())

let iter t ~f =
  let rec visit id =
    let node = read_node t id in
    match Node_nd.kind node with
    | Node_nd.Leaf -> Array.iter f (Node_nd.entries node)
    | Node_nd.Internal -> Array.iter (fun e -> visit (Entry_nd.id e)) (Node_nd.entries node)
  in
  visit t.root

type structure = { nodes : int; leaves : int; entries : int; utilization : float }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let validate t =
  let cap = capacity t in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  let rec visit id depth =
    incr nodes;
    let node = read_node t id in
    let n = Node_nd.length node in
    if n > cap then invalid "node %d holds %d entries, capacity %d" id n cap;
    match Node_nd.kind node with
    | Node_nd.Leaf ->
        if depth <> t.height then
          invalid "leaf %d at depth %d but tree height is %d" id depth t.height;
        incr leaves;
        entries := !entries + n;
        if n = 0 && t.count > 0 then invalid "empty leaf %d in non-empty tree" id;
        if n = 0 then None else Some (Node_nd.mbr node)
    | Node_nd.Internal ->
        if depth >= t.height then
          invalid "internal node %d at depth %d but tree height is %d" id depth t.height;
        if n = 0 then invalid "empty internal node %d" id;
        Array.iter
          (fun e ->
            match visit (Entry_nd.id e) (depth + 1) with
            | Some child_mbr ->
                if not (Hyperrect.equal child_mbr (Entry_nd.box e)) then
                  invalid "node %d records a stale MBR for child %d" id (Entry_nd.id e)
            | None -> invalid "node %d points at empty subtree %d" id (Entry_nd.id e))
          (Node_nd.entries node);
        Some (Node_nd.mbr node)
  in
  ignore (visit t.root 1);
  if !entries <> t.count then
    invalid "tree metadata says %d entries but leaves hold %d" t.count !entries;
  {
    nodes = !nodes;
    leaves = !leaves;
    entries = !entries;
    utilization =
      (if !leaves = 0 then 0.0 else float_of_int !entries /. float_of_int (!leaves * cap));
  }
