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
  let cap = Node.capacity ~page_size:(Pager.page_size (Buffer_pool.pager pool)) in
  let n = Entry.File.length sorted in
  if n = 0 then Rtree.create_empty pool
  else begin
    let parents = ref [] in
    let chunk = Array.make cap (Entry.make (Rect.point 0.0 0.0) 0) in
    let filled = ref 0 in
    let flush () =
      if !filled > 0 then begin
        parents := Pack.write_node pool ~kind:Node.Leaf (Array.sub chunk 0 !filled) :: !parents;
        filled := 0
      end
    in
    Entry.File.iter sorted (fun e ->
        chunk.(!filled) <- e;
        incr filled;
        if !filled = cap then flush ());
    flush ();
    Pack.pack_up pool ~order:ignore ~count:n (Array.of_list (List.rev !parents))
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

(* The run boxes of one sorted file ([Bulk_tgs.run_boxes], one scan),
   and each run's last entry: a cut falls between runs, so the entry
   before it is one of these, and no second scan has to find it. *)
let file_runs ~unit n file =
  let last = Array.make ((n + unit - 1) / unit) (Entry.make (Rect.point 0.0 0.0) 0) in
  let i = ref 0 in
  let boxes =
    Bulk_tgs.run_boxes ~unit n (fun f ->
        Entry.File.iter file (fun e ->
            last.(!i / unit) <- e;
            incr i;
            f e))
  in
  (boxes, last)

(* Split all four sorted files at the cut, whose left part ends with
   [boundary] in [dim] order: every file is routed by comparison with
   it (a total order, so the two sides are exactly the same sets).
   Consumes the input files. *)
let split_files pager ~dim ~boundary files =
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
  let cap = Node.capacity ~page_size:(Pager.page_size pager) in
  let n = Entry.File.length file in
  if n = 0 then Rtree.create_empty pool
  else begin
    (* Greedy binary partitioning down to groups of at most [unit]: each
       cut is [Bulk_tgs]'s, over the runs of the four sorted files, one
       scan each. *)
    let rec partition ~unit files n groups =
      if n <= unit then (files, n) :: groups
      else begin
        let runs = Array.map (file_runs ~unit n) files in
        let dim, cut = Bulk_tgs.best_cut ~unit (Array.map fst runs) in
        let boundary = (snd runs.(dim)).((cut / unit) - 1) in
        let left, right = split_files pager ~dim ~boundary files in
        partition ~unit left cut (partition ~unit right (n - cut) groups)
      end
    in
    let rec build files n ~height =
      if height = 1 then begin
        let entries = Entry.File.read_all files.(0) in
        Array.iter Entry.File.destroy files;
        Pack.write_node pool ~kind:Node.Leaf entries
      end
      else begin
        let unit = Bulk_tgs.pow_int cap (height - 1) in
        let groups = partition ~unit files n [] in
        let children = List.map (fun (fs, gn) -> build fs gn ~height:(height - 1)) groups in
        Pack.write_node pool ~kind:Node.Internal (Array.of_list children)
      end
    in
    (* Four initial sorted copies; the input file is left intact. *)
    let sorted =
      Trace.with_span "ext.tgs.sort" (fun () ->
          Array.init 4 (fun d -> Entry.File.sort ~mem_records ~cmp:(Entry.compare_dim d) file))
    in
    let height = Bulk_tgs.height_for ~cap n in
    let root = Trace.with_span "ext.tgs.build" (fun () -> build sorted n ~height) in
    Rtree.of_root ~pool ~root:(Entry.id root) ~height ~count:n
  end
