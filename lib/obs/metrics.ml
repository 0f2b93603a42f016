(* A process-wide registry of named counters, gauges and log-bucketed
   histograms, correct under OCaml 5 domains.

   Design constraints, in order:

   1. Zero perturbation: recording a metric must never touch the pager
      or buffer pool, so instrumented code observes exactly the I/O it
      would without instrumentation (the bench harness's numbers are the
      paper's figures — they must not move).
   2. Near-zero cost when off: every mutator is gated on one atomic
      flag, so an uninstrumented run pays a load and a branch per call
      site and nothing else.  [collecting] is flipped on by a traced
      run (its spans then carry counter deltas) or by a surface that
      wants metrics without tracing.
   3. Domain safety without contention: each domain owns a private
      stripe (plain int arrays reached through [Domain.DLS]); a mutator
      writes only its own stripe, so there is no shared mutable cell two
      domains ever write — the lost-update race of the old single-array
      design is unrepresentable, not merely locked away.  Readers
      aggregate the stripes under the registry mutex.
   4. Stable identity: metrics are registered once by name (find-or-
      create) and a counter's dense slot is its registration ordinal, so
      hot call sites hold the record directly and pay no lookup, and
      {!Trace} gets a cheap dense snapshot for span-boundary deltas.

   Exactness: a domain that terminates folds its stripe into the
   [retired] accumulator (under the registry mutex) from a
   [Domain.at_exit] hook, so after [Domain.join] an aggregated read
   equals the sequential sum of every recorded increment.  While writer
   domains are still running, aggregation is a racy-but-atomic-per-cell
   snapshot: it may lag in-flight increments but never tears a value
   (int array cells are single words in the OCaml memory model). *)

type counter = { c_id : int; c_name : string }
type gauge = { g_name : string; g_cell : float Atomic.t }
type histogram = { h_id : int; h_name : string }

(* Bucket 0 holds values <= 0; bucket k >= 1 holds [2^(k-1), 2^k - 1].
   63 buckets cover the whole non-negative int range on 64-bit. *)
let nbuckets = 63

(* Per-stripe histogram cell, allocated lazily on first observation. *)
type hcell = {
  hc_buckets : int array;
  mutable hc_count : int;
  mutable hc_sum : int;
  mutable hc_min : int;
  mutable hc_max : int;
}

(* A stripe is one domain's private slice of every counter and
   histogram.  Arrays are indexed by registration ordinal and grown by
   the owning domain when a metric registered after stripe creation is
   first touched. *)
type stripe = {
  mutable st_counters : int array;
  mutable st_hists : hcell option array;
}

type kind = Kc of counter | Kg of gauge | Kh of histogram

let lock = Mutex.create ()

(* Registration state, all guarded by [lock].  Lists are newest-first;
   a metric's dense slot is its [c_id]/[h_id] ordinal. *)
let counters : counter list ref = ref []
let gauges : gauge list ref = ref []
let histograms : histogram list ref = ref []
let by_name : (string, kind) Hashtbl.t = Hashtbl.create 64
let ncounters = ref 0
let nhistograms = ref 0

let fresh_hcell () =
  { hc_buckets = Array.make nbuckets 0; hc_count = 0; hc_sum = 0; hc_min = max_int; hc_max = min_int }

let new_stripe () =
  { st_counters = Array.make (max 16 !ncounters) 0; st_hists = Array.make (max 4 !nhistograms) None }

(* Stripes of live domains plus one accumulator for dead ones; guarded
   by [lock]. *)
let live_stripes : stripe list ref = ref []
let retired = { st_counters = Array.make 16 0; st_hists = Array.make 4 None }

let merge_hcell dst src =
  for k = 0 to nbuckets - 1 do
    dst.hc_buckets.(k) <- dst.hc_buckets.(k) + src.hc_buckets.(k)
  done;
  dst.hc_count <- dst.hc_count + src.hc_count;
  dst.hc_sum <- dst.hc_sum + src.hc_sum;
  if src.hc_min < dst.hc_min then dst.hc_min <- src.hc_min;
  if src.hc_max > dst.hc_max then dst.hc_max <- src.hc_max

(* Fold [src] into [dst]; caller holds [lock]. *)
let fold_into dst src =
  let nc = Array.length src.st_counters in
  if Array.length dst.st_counters < nc then begin
    let a = Array.make nc 0 in
    Array.blit dst.st_counters 0 a 0 (Array.length dst.st_counters);
    dst.st_counters <- a
  end;
  for i = 0 to nc - 1 do
    dst.st_counters.(i) <- dst.st_counters.(i) + src.st_counters.(i)
  done;
  let nh = Array.length src.st_hists in
  if Array.length dst.st_hists < nh then begin
    let a = Array.make nh None in
    Array.blit dst.st_hists 0 a 0 (Array.length dst.st_hists);
    dst.st_hists <- a
  end;
  for i = 0 to nh - 1 do
    match src.st_hists.(i) with
    | None -> ()
    | Some sc -> (
        match dst.st_hists.(i) with
        | Some dc -> merge_hcell dc sc
        | None ->
            let dc = fresh_hcell () in
            merge_hcell dc sc;
            dst.st_hists.(i) <- Some dc)
  done

(* The DLS initializer runs on first metric touched by a domain: it
   registers the fresh stripe and schedules its retirement.  The
   at_exit closure captures the stripe directly (DLS state may already
   be torn down when it runs).  Increments recorded by at_exit hooks
   registered *before* a domain's first metric touch run after
   retirement and are dropped — don't record metrics from such hooks. *)
let stripe_key =
  Domain.DLS.new_key (fun () ->
      let s = new_stripe () in
      Mutex.protect lock (fun () -> live_stripes := s :: !live_stripes);
      Domain.at_exit (fun () ->
          Mutex.protect lock (fun () ->
              live_stripes := List.filter (fun s' -> s' != s) !live_stripes;
              fold_into retired s));
      s)

let stripe () = Domain.DLS.get stripe_key

let collecting_flag = Atomic.make false

let collecting () = Atomic.get collecting_flag
let set_collecting b = Atomic.set collecting_flag b

let wrong_kind name =
  invalid_arg (Printf.sprintf "Metrics: %S is already registered with a different kind" name)

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some (Kc c) -> c
      | Some _ -> wrong_kind name
      | None ->
          let c = { c_id = !ncounters; c_name = name } in
          Hashtbl.replace by_name name (Kc c);
          counters := c :: !counters;
          incr ncounters;
          c)

let gauge name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some (Kg g) -> g
      | Some _ -> wrong_kind name
      | None ->
          let g = { g_name = name; g_cell = Atomic.make 0.0 } in
          Hashtbl.replace by_name name (Kg g);
          gauges := g :: !gauges;
          g)

let histogram name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some (Kh h) -> h
      | Some _ -> wrong_kind name
      | None ->
          let h = { h_id = !nhistograms; h_name = name } in
          Hashtbl.replace by_name name (Kh h);
          histograms := h :: !histograms;
          incr nhistograms;
          h)

(* --- mutators: touch only the calling domain's stripe --- *)

let grow_counters s id =
  let n = Array.length s.st_counters in
  let a = Array.make (max (2 * n) (id + 1)) 0 in
  Array.blit s.st_counters 0 a 0 n;
  s.st_counters <- a;
  a

let add c n =
  if Atomic.get collecting_flag then begin
    let s = stripe () in
    let arr = s.st_counters in
    let arr = if c.c_id < Array.length arr then arr else grow_counters s c.c_id in
    Array.unsafe_set arr c.c_id (Array.unsafe_get arr c.c_id + n)
  end

let tick c = add c 1

let counter_name c = c.c_name

let set_gauge g v = if Atomic.get collecting_flag then Atomic.set g.g_cell v

let gauge_value g = Atomic.get g.g_cell

let bucket_index v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (nbuckets - 1) (bits 0 v)
  end

let bucket_bounds k =
  if k <= 0 then (min_int, 0)
  else if k >= nbuckets - 1 then (1 lsl (nbuckets - 2), max_int)
  else (1 lsl (k - 1), (1 lsl k) - 1)

let grow_hists s id =
  let n = Array.length s.st_hists in
  let a = Array.make (max (2 * n) (id + 1)) None in
  Array.blit s.st_hists 0 a 0 n;
  s.st_hists <- a;
  a

let hcell_for s h =
  let arr = s.st_hists in
  let arr = if h.h_id < Array.length arr then arr else grow_hists s h.h_id in
  match Array.unsafe_get arr h.h_id with
  | Some c -> c
  | None ->
      let c = fresh_hcell () in
      arr.(h.h_id) <- Some c;
      c

let observe h v =
  if Atomic.get collecting_flag then begin
    let cell = hcell_for (stripe ()) h in
    let k = bucket_index v in
    cell.hc_buckets.(k) <- cell.hc_buckets.(k) + 1;
    cell.hc_count <- cell.hc_count + 1;
    cell.hc_sum <- cell.hc_sum + v;
    if v < cell.hc_min then cell.hc_min <- v;
    if v > cell.hc_max then cell.hc_max <- v
  end

(* --- aggregated reads --- *)

let stripe_counter s id = if id < Array.length s.st_counters then s.st_counters.(id) else 0

let value c =
  Mutex.protect lock (fun () ->
      List.fold_left (fun acc s -> acc + stripe_counter s c.c_id) (stripe_counter retired c.c_id)
        !live_stripes)

let merged_hcell h =
  let m = fresh_hcell () in
  let take s =
    if h.h_id < Array.length s.st_hists then
      match s.st_hists.(h.h_id) with Some c -> merge_hcell m c | None -> ()
  in
  Mutex.protect lock (fun () ->
      take retired;
      List.iter take !live_stripes);
  m

let histogram_count h = (merged_hcell h).hc_count
let histogram_sum h = (merged_hcell h).hc_sum
let histogram_bucket h k = (merged_hcell h).hc_buckets.(k)

(* Percentile estimate by linear interpolation inside the owning log
   bucket, with the bucket range clamped to the observed min/max so
   small samples don't report a power-of-two artifact.  [p] is in
   [0, 100]; nan on an empty histogram. *)
let percentile h p =
  let m = merged_hcell h in
  if m.hc_count = 0 then nan
  else begin
    let target =
      let r = int_of_float (Float.round (p /. 100.0 *. float_of_int m.hc_count)) in
      max 1 (min m.hc_count r)
    in
    let rec find k cum =
      if k >= nbuckets then float_of_int m.hc_max
      else begin
        let n = m.hc_buckets.(k) in
        if cum + n >= target then begin
          let lo, hi = bucket_bounds k in
          let lo = float_of_int (max lo (min m.hc_min m.hc_max)) in
          let hi = float_of_int (min hi m.hc_max) in
          let lo = min lo hi in
          let frac = float_of_int (target - cum) /. float_of_int n in
          lo +. (frac *. (hi -. lo))
        end
        else find (k + 1) (cum + n)
      end
    in
    find 0 0
  end

(* Quiescent-only: concurrent increments may survive a reset.  Tests and
   benches call this between runs, with no writer domains live. *)
let reset_all () =
  Mutex.protect lock (fun () ->
      let wipe s =
        Array.fill s.st_counters 0 (Array.length s.st_counters) 0;
        Array.iter
          (function
            | None -> ()
            | Some c ->
                Array.fill c.hc_buckets 0 nbuckets 0;
                c.hc_count <- 0;
                c.hc_sum <- 0;
                c.hc_min <- max_int;
                c.hc_max <- min_int)
          s.st_hists
      in
      wipe retired;
      List.iter wipe !live_stripes;
      List.iter (fun g -> Atomic.set g.g_cell 0.0) !gauges)

(* --- dense counter snapshots (the span-delta fast path) --- *)

(* A counter's slot is its registration ordinal, so a snapshot taken
   when k counters existed aligns with the first k slots of a later
   one. *)
let counter_values_locked () =
  let n = !ncounters in
  let arr = Array.make n 0 in
  let accum s =
    let stop = min n (Array.length s.st_counters) in
    for i = 0 to stop - 1 do
      arr.(i) <- arr.(i) + s.st_counters.(i)
    done
  in
  accum retired;
  List.iter accum !live_stripes;
  arr

let counter_values () = Mutex.protect lock counter_values_locked

let counter_deltas ~since =
  Mutex.protect lock (fun () ->
      let now = counter_values_locked () in
      let old = Array.length since in
      let names = Array.make !ncounters "" in
      List.iter (fun c -> names.(c.c_id) <- c.c_name) !counters;
      List.init !ncounters (fun i ->
          let base = if i < old then since.(i) else 0 in
          (names.(i), now.(i) - base)))

let snapshot_counters () =
  Mutex.protect lock (fun () ->
      let now = counter_values_locked () in
      List.rev_map (fun c -> (c.c_name, now.(c.c_id))) !counters)

(* --- export --- *)

let histogram_json_of_cell m =
  let buckets =
    List.filter_map
      (fun k ->
        if m.hc_buckets.(k) = 0 then None
        else begin
          let lo, hi = bucket_bounds k in
          Some (Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int m.hc_buckets.(k)) ])
        end)
      (List.init nbuckets Fun.id)
  in
  Json.Obj
    ([ ("count", Json.Int m.hc_count); ("sum", Json.Int m.hc_sum) ]
    @ (if m.hc_count = 0 then []
       else [ ("min", Json.Int m.hc_min); ("max", Json.Int m.hc_max) ])
    @ [ ("buckets", Json.List buckets) ])

let to_json () =
  let counter_rows = snapshot_counters () in
  let hists = List.rev_map (fun h -> (h.h_name, histogram_json_of_cell (merged_hcell h))) !histograms in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counter_rows));
      ("gauges", Json.Obj (List.rev_map (fun g -> (g.g_name, Json.Float (Atomic.get g.g_cell))) !gauges));
      ("histograms", Json.Obj hists);
    ]

let pp ppf () =
  List.iter (fun (n, v) -> Format.fprintf ppf "%s %d@." n v) (snapshot_counters ());
  List.iter
    (fun g -> Format.fprintf ppf "%s %g@." g.g_name (Atomic.get g.g_cell))
    (List.rev !gauges);
  List.iter
    (fun h ->
      let m = merged_hcell h in
      if m.hc_count = 0 then Format.fprintf ppf "%s (empty)@." h.h_name
      else
        Format.fprintf ppf "%s count=%d sum=%d min=%d max=%d@." h.h_name m.hc_count m.hc_sum
          m.hc_min m.hc_max)
    (List.rev !histograms)
