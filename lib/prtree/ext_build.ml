(* I/O-efficient PR-tree bulk loading (the "efficient construction
   algorithm" of Section 2.1, staged into a full PR-tree as in
   Section 2.2).

   Following the paper, each stage builds the top Theta(log M) levels of
   a pseudo-PR-tree per round:

   1. four sorted lists of the records, one per kd-coordinate (external
      sort; first round only — distribution preserves sortedness);
   2. the top kd levels are chosen from an in-memory structure: the
      paper uses a z^4 grid of counts; we use a systematic sample of the
      sorted input, whose conditional medians approximate the grid
      medians with bounded rank error (DESIGN.md documents this
      substitution — the query analysis only needs each child to get at
      most about half of its parent's records, which sampled medians
      preserve up to a small constant);
   3. a filtering pass streams every record through the top levels,
      filling the 4 priority leaves of each node exactly as in the
      paper: a record displaces the least extreme record of a full
      priority leaf and the displaced record continues filtering;
   4. a distribution pass splits the four sorted lists into four sorted
      lists per kd-cell (one scan, z*4 output buffers);
   5. cells small enough for main memory finish with the in-memory
      builder; larger cells recurse into another round.

   All reads and writes go through the pager, so construction I/O is
   measured the same way as for the baselines (Figures 9 and 10). *)

module Rect = Prt_geom.Rect
module Buffer_pool = Prt_storage.Buffer_pool
module Pager = Prt_storage.Pager
module Pqueue = Prt_util.Pqueue
module Select = Prt_util.Select
module Entry = Prt_rtree.Entry
module Node = Prt_rtree.Node
module Pack = Prt_rtree.Pack
module Rtree = Prt_rtree.Rtree
module Trace = Prt_obs.Trace
module Json = Prt_obs.Json

(* --- the in-memory top-levels structure --- *)

(* A priority buffer keeps up to [capacity] entries extreme in [dim]; the
   heap minimum is the least extreme entry, i.e. the replacement
   victim. *)
type prio = { dim : int; capacity : int; heap : Entry.t Pqueue.t }

let prio_make ~dim ~capacity =
  { dim; capacity; heap = Pqueue.create (fun a b -> Pseudo.extreme_cmp dim b a) }

type skind =
  | Split of { dim : int; boundary : Entry.t; left : snode; right : snode }
  | Cell of int

and snode = { prios : prio array; kind : skind }

(* Build the top kd levels from a sample: cycle the split dimension,
   split at the sample median, stop after [depth] levels (or when the
   sample runs dry). Returns the tree and the number of cells. *)
let build_sample_tree ~cap sample depth =
  let cells = ref 0 in
  let rec go lo hi level kd_depth =
    let prios = Array.init 4 (fun dim -> prio_make ~dim ~capacity:cap) in
    if level = 0 || hi - lo < 2 then begin
      let id = !cells in
      incr cells;
      { prios; kind = Cell id }
    end
    else begin
      let dim = kd_depth mod 4 in
      let mid = lo + ((hi - lo) / 2) in
      Select.partition_at ~cmp:(Entry.compare_dim dim) sample lo hi mid;
      let boundary = sample.(mid) in
      (* Records strictly less than or equal to the boundary go left; the
         boundary sample itself is the greatest element of the left
         side. *)
      let left = go lo (mid + 1) (level - 1) (kd_depth + 1) in
      let right = go (mid + 1) hi (level - 1) (kd_depth + 1) in
      { prios; kind = Split { dim; boundary; left; right } }
    end
  in
  let root = go 0 (Array.length sample) depth 0 in
  (root, !cells)

(* Route a record to its kd-cell (ignoring priority buffers). *)
let rec cell_of node r =
  match node.kind with
  | Cell id -> id
  | Split { dim; boundary; left; right } ->
      if Entry.compare_dim dim r boundary <= 0 then cell_of left r else cell_of right r

(* Filter one record through the top levels, filling priority buffers.
   [absorbed] is the id set currently held in priority buffers. *)
let filter_record ~absorbed root r =
  let rec go node r =
    let rec try_prios i r =
      if i = 4 then Some r
      else begin
        let p = node.prios.(i) in
        if Pqueue.length p.heap < p.capacity then begin
          Pqueue.add p.heap r;
          Hashtbl.replace absorbed (Entry.id r) ();
          None
        end
        else begin
          match Pqueue.peek p.heap with
          | Some least when Pseudo.extreme_cmp p.dim r least < 0 ->
              (* r is more extreme: displace the victim, which then
                 continues through the remaining priority buffers. *)
              ignore (Pqueue.pop p.heap);
              Pqueue.add p.heap r;
              Hashtbl.replace absorbed (Entry.id r) ();
              Hashtbl.remove absorbed (Entry.id least);
              try_prios (i + 1) least
          | _ -> try_prios (i + 1) r
        end
      end
    in
    match try_prios 0 r with
    | None -> ()
    | Some r -> (
        match node.kind with
        | Cell _ -> () (* left for the distribution pass *)
        | Split { dim; boundary; left; right } ->
            if Entry.compare_dim dim r boundary <= 0 then go left r else go right r)
  in
  go root r

let iter_priority_buffers root ~f =
  let rec walk node =
    (* Cells keep empty buffers; only split nodes absorb records, but
       checking emptiness covers both uniformly. *)
    Array.iter
      (fun p ->
        let len = Pqueue.length p.heap in
        if len > 0 then begin
          let first = Pqueue.pop_exn p.heap in
          let out = Array.make len first in
          for i = 1 to len - 1 do
            out.(i) <- Pqueue.pop_exn p.heap
          done;
          f out
        end)
      node.prios;
    match node.kind with
    | Cell _ -> ()
    | Split { left; right; _ } ->
        walk left;
        walk right
  in
  walk root

(* --- the external pseudo-PR-tree leaf generator --- *)

let ceil_log2 x =
  let rec go p v = if v >= x then p else go (p + 1) (2 * v) in
  go 0 1

(* Emit all pseudo-PR-tree leaves of the records in [files] (four sorted
   copies of the same record set) through [emit_leaf]. Consumes and
   destroys [files]. *)
let rec pseudo_leaves pager ~cap ~mem_records ~emit_leaf files n =
  if n = 0 then Array.iter Entry.File.destroy files
  else if n <= mem_records then begin
    let entries = Entry.File.read_all files.(0) in
    Array.iter Entry.File.destroy files;
    List.iter (fun (_, leaf) -> emit_leaf leaf) (Pseudo.build_leaves ~b:cap entries)
  end
  else begin
    (* Sample systematically from the xmin-sorted list. *)
    let sample_target = max 64 (mem_records / 4) in
    let stride = max 1 (n / sample_target) in
    let sample = ref [] and idx = ref 0 in
    Entry.File.iter files.(0) (fun e ->
        if !idx mod stride = 0 then sample := e :: !sample;
        incr idx);
    let sample = Array.of_list !sample in
    (* Enough levels that cells are expected to fit in memory, but no
       more than priority-buffer memory allows (4 * cap * #nodes). *)
    let depth_for_memory = ceil_log2 (max 2 ((2 * n) / mem_records)) in
    let z_max = max 2 (mem_records / (8 * cap)) in
    let depth = max 1 (min depth_for_memory (ceil_log2 z_max)) in
    let root, ncells = build_sample_tree ~cap sample depth in
    (* Filtering pass: fill the priority buffers. *)
    let absorbed = Hashtbl.create (8 * cap * ncells) in
    Trace.with_span "prtree.ext.filter"
      ~args:[ ("n", Json.Int n); ("cells", Json.Int ncells) ]
      (fun () ->
        Entry.File.iter files.(0) (fun e -> filter_record ~absorbed root e);
        iter_priority_buffers root ~f:emit_leaf);
    (* Distribution pass: split each sorted list by cell. *)
    let outputs =
      Array.init ncells (fun _ -> Array.init 4 (fun _ -> Entry.File.create pager))
    in
    let counts = Array.make ncells 0 in
    Trace.with_span "prtree.ext.distribute"
      ~args:[ ("cells", Json.Int ncells) ]
      (fun () ->
        Array.iteri
          (fun dim file ->
            Entry.File.iter file (fun e ->
                if not (Hashtbl.mem absorbed (Entry.id e)) then begin
                  let c = cell_of root e in
                  Entry.File.append outputs.(c).(dim) e;
                  if dim = 0 then counts.(c) <- counts.(c) + 1
                end);
            Entry.File.destroy file)
          files;
        Array.iter (fun fs -> Array.iter Entry.File.seal fs) outputs);
    (* Recurse per cell. The filtering pass absorbed at least 4*cap
       records (the root's buffers), so n strictly decreases even if the
       sample split badly. *)
    Array.iteri (fun c fs -> pseudo_leaves pager ~cap ~mem_records ~emit_leaf fs counts.(c)) outputs
  end

(* --- staged PR-tree construction --- *)

let load ?(mem_records = 18_000) pool file =
  Trace.with_span "prtree.ext.load"
    ~args:[ ("n", Json.Int (Entry.File.length file)) ]
  @@ fun () ->
  let pager = Buffer_pool.pager pool in
  let cap = Node.capacity ~page_size:(Pager.page_size pager) in
  if mem_records < 8 * cap then invalid_arg "Ext_build.load: memory budget below 8 nodes of records";
  let count = Entry.File.length file in
  if count = 0 then Rtree.create_empty pool
  else begin
    (* One stage: pseudo-PR-tree leaves of [level_file] become the nodes
       of this level; their bounding boxes feed the next stage. *)
    let rec stage level_file ~kind ~height ~owned =
      let n = Entry.File.length level_file in
      if n <= cap then begin
        let entries = Entry.File.read_all level_file in
        if owned then Entry.File.destroy level_file;
        let root = Pack.write_node pool ~kind entries in
        Rtree.of_root ~pool ~root:(Entry.id root) ~height ~count
      end
      else begin
        let next = Entry.File.create pager in
        let emit_leaf entries = Entry.File.append next (Pack.write_node pool ~kind entries) in
        Trace.with_span "prtree.ext.stage"
          ~args:[ ("level", Json.Int (height - 1)); ("n", Json.Int n) ]
          (fun () ->
            if n <= mem_records then begin
              (* Small levels skip the sorted lists entirely. *)
              let entries = Entry.File.read_all level_file in
              if owned then Entry.File.destroy level_file;
              List.iter (fun (_, leaf) -> emit_leaf leaf) (Pseudo.build_leaves ~b:cap entries)
            end
            else begin
              let sorted =
                Trace.with_span "prtree.ext.sort" (fun () ->
                    Array.init 4 (fun d ->
                        Entry.File.sort ~mem_records ~cmp:(Entry.compare_dim d) level_file))
              in
              if owned then Entry.File.destroy level_file;
              pseudo_leaves pager ~cap ~mem_records ~emit_leaf sorted n
            end;
            Entry.File.seal next);
        stage next ~kind:Node.Internal ~height:(height + 1) ~owned:true
      end
    in
    stage file ~kind:Node.Leaf ~height:1 ~owned:false
  end
