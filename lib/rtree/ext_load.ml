(* External-memory (I/O-counted) bulk loading for the baseline R-trees.

   These variants read their input from an {!Entry.File} living in the
   same pager as the resulting tree, express every scan, sort and
   distribution through {!Prt_extsort.Record_file}, and therefore have
   honest I/O counts comparable to the paper's Figure 9-11 numbers:

   - packed Hilbert (H) and 4-D Hilbert (H4): one external sort by
     Hilbert key plus one packing scan — O((N/B) log_{M/B} (N/B)) I/Os;
   - TGS: four external sorts up front, then a full scan of the current
     subset for every binary partition, exactly as the original
     algorithm — effectively O((N/B) log2 N) I/Os, the behaviour the
     paper measures.

   Upper tree levels hold N/B entries and are built in memory (the paper
   does the same; their I/O contribution is negligible and the node
   writes are still counted). *)

module Rect = Prt_geom.Rect
module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

let world_of_file file =
  let world = ref None in
  Entry.File.iter file (fun e ->
      world :=
        Some (match !world with None -> Entry.rect e | Some w -> Rect.union w (Entry.rect e)));
  match !world with None -> Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0 | Some w -> w

(* Pack a sorted entry file into leaves, then build the upper levels
   from the (in-memory) parent entries. *)
let pack_sorted_file pool sorted =
  let page_size = Pager.page_size (Buffer_pool.pager pool) in
  let cap = Node.capacity ~page_size in
  let n = Entry.File.length sorted in
  if n = 0 then Rtree.create_empty pool
  else begin
    let parents = ref [] in
    let chunk = Array.make cap (Entry.make (Rect.point 0.0 0.0) 0) in
    let filled = ref 0 in
    let flush () =
      if !filled > 0 then begin
        let node = Node.make Node.Leaf (Array.sub chunk 0 !filled) in
        let id = Buffer_pool.alloc pool in
        Buffer_pool.write pool id (Node.encode ~page_size node);
        parents := Entry.make (Node.mbr node) id :: !parents;
        filled := 0
      end
    in
    Entry.File.iter sorted (fun e ->
        chunk.(!filled) <- e;
        incr filled;
        if !filled = cap then flush ());
    flush ();
    let leaves = Array.of_list (List.rev !parents) in
    let rec up level height =
      if Array.length level = 1 then (Entry.id level.(0), height)
      else up (Pack.pack_level pool ~kind:Node.Internal level) (height + 1)
    in
    let root, height = up leaves 1 in
    Rtree.of_root ~pool ~root ~height ~count:n
  end

let hilbert_cmp key world a b =
  let c = Int.compare (key ~world a) (key ~world b) in
  if c <> 0 then c else Entry.compare_dim 0 a b

let load_hilbert ~variant pool ~mem_records file =
  let name = match variant with `H -> "ext.load_h" | `H4 -> "ext.load_h4" in
  Trace.with_span name
    ~args:[ ("n", Json.Int (Entry.File.length file)) ]
    (fun () ->
      let key =
        match variant with `H -> Bulk_hilbert.hilbert2d_key | `H4 -> Bulk_hilbert.hilbert4d_key
      in
      let world = world_of_file file in
      let sorted =
        Trace.with_span "ext.hilbert.sort" (fun () ->
            Entry.File.sort ~mem_records ~cmp:(hilbert_cmp key world) file)
      in
      let tree = Trace.with_span "ext.hilbert.pack" (fun () -> pack_sorted_file pool sorted) in
      Entry.File.destroy sorted;
      tree)

let load_h pool ~mem_records file = load_hilbert ~variant:`H pool ~mem_records file
let load_h4 pool ~mem_records file = load_hilbert ~variant:`H4 pool ~mem_records file

(* --- external TGS --- *)

let pow_int base e =
  let rec go acc e = if e = 0 then acc else go (acc * base) (e - 1) in
  go 1 e

let height_for ~cap n =
  let rec go h reach = if reach >= n then h else go (h + 1) (reach * cap) in
  go 1 cap

(* Per-unit segment MBRs of a sorted file: one scan, O(n/unit) memory. *)
let segment_mbrs ~unit file =
  let n = Entry.File.length file in
  let nsegs = (n + unit - 1) / unit in
  let segs = Array.make nsegs None in
  let idx = ref 0 in
  Entry.File.iter file (fun e ->
      let s = !idx / unit in
      segs.(s) <-
        Some (match segs.(s) with None -> Entry.rect e | Some m -> Rect.union m (Entry.rect e));
      incr idx);
  Array.map (function Some m -> m | None -> assert false) segs

(* Best binary cut over the four orderings: minimizes the sum of the two
   bounding-box areas; cuts fall on multiples of [unit]. Returns
   (dimension, records in the left part). *)
let best_cut ~unit files =
  let best = ref None in
  Array.iteri
    (fun dim file ->
      let segs = segment_mbrs ~unit file in
      let nsegs = Array.length segs in
      if nsegs >= 2 then begin
        let prefix = Array.make nsegs segs.(0) in
        for i = 1 to nsegs - 1 do
          prefix.(i) <- Rect.union prefix.(i - 1) segs.(i)
        done;
        let suffix = Array.make nsegs segs.(nsegs - 1) in
        for i = nsegs - 2 downto 0 do
          suffix.(i) <- Rect.union suffix.(i + 1) segs.(i)
        done;
        for c = 1 to nsegs - 1 do
          let cost = Rect.area prefix.(c - 1) +. Rect.area suffix.(c) in
          match !best with
          | Some (best_cost, _, _) when best_cost <= cost -> ()
          | _ -> best := Some (cost, dim, c * unit)
        done
      end)
    files;
  match !best with Some (_, dim, cut) -> (dim, cut) | None -> invalid_arg "Ext_load.best_cut"

(* Split all four sorted files at the cut: the winning dimension's file
   splits positionally; the others are routed by comparison with the
   boundary entry (total order, so the two sides are exactly the same
   sets). Consumes the input files. *)
let split_files pager ~dim ~cut files =
  let boundary = ref None in
  let idx = ref 0 in
  (* Fetch the boundary = last entry of the left part in [dim] order. *)
  Entry.File.iter files.(dim) (fun e ->
      if !idx = cut - 1 then boundary := Some e;
      incr idx);
  let boundary = match !boundary with Some b -> b | None -> assert false in
  let goes_left e = Entry.compare_dim dim e boundary <= 0 in
  let pair =
    Array.map
      (fun file ->
        let left = Entry.File.create pager and right = Entry.File.create pager in
        Entry.File.iter file (fun e ->
            if goes_left e then Entry.File.append left e else Entry.File.append right e);
        Entry.File.seal left;
        Entry.File.seal right;
        Entry.File.destroy file;
        (left, right))
      files
  in
  (Array.map fst pair, Array.map snd pair)

let load_tgs pool ~mem_records file =
  Trace.with_span "ext.load_tgs"
    ~args:[ ("n", Json.Int (Entry.File.length file)) ]
  @@ fun () ->
  let pager = Buffer_pool.pager pool in
  let page_size = Pager.page_size pager in
  let cap = Node.capacity ~page_size in
  let n = Entry.File.length file in
  if n = 0 then Rtree.create_empty pool
  else begin
    let write kind node_entries =
      let node = Node.make kind node_entries in
      let id = Buffer_pool.alloc pool in
      Buffer_pool.write pool id (Node.encode ~page_size node);
      Entry.make (Node.mbr node) id
    in
    (* Greedy binary partitioning down to groups of at most [unit]. *)
    let rec partition ~unit files n groups =
      if n <= unit then (files, n) :: groups
      else begin
        let dim, cut = best_cut ~unit files in
        let left, right = split_files pager ~dim ~cut files in
        partition ~unit left cut (partition ~unit right (n - cut) groups)
      end
    in
    let rec build files n ~height =
      if height = 1 then begin
        let entries = Entry.File.read_all files.(0) in
        Array.iter Entry.File.destroy files;
        write Node.Leaf entries
      end
      else begin
        let unit = pow_int cap (height - 1) in
        let groups = partition ~unit files n [] in
        let children = List.map (fun (fs, gn) -> build fs gn ~height:(height - 1)) groups in
        write Node.Internal (Array.of_list children)
      end
    in
    (* Four initial sorted copies; the input file is left intact. *)
    let sorted =
      Trace.with_span "ext.tgs.sort" (fun () ->
          Array.init 4 (fun d -> Entry.File.sort ~mem_records ~cmp:(Entry.compare_dim d) file))
    in
    let height = height_for ~cap n in
    let root = Trace.with_span "ext.tgs.build" (fun () -> build sorted n ~height) in
    Rtree.of_root ~pool ~root:(Entry.id root) ~height ~count:n
  end
