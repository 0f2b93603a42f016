(* A live index: sensor bounding boxes arriving and expiring in a
   stream, served by the logarithmic-method PR-tree (Section 4 of the
   paper, persisted as an [Lsm] store) so that query performance never
   degrades the way a heuristically-updated R-tree's does.

   Run with: dune exec examples/dynamic_index.exe *)

open Prt

(* The store is one flat directory: WAL segments, manifests and one
   index file per component. *)
let remove_store dir =
  Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  let dir = Filename.temp_file "dynamic_index" "" in
  Sys.remove dir;
  (* Inserts are acknowledged once their WAL record is written; without
     an fsync per insert ([`Never]), the stream runs at memory speed. *)
  let index = Lsm.create ~wal_sync:`Never dir in
  Fun.protect ~finally:(fun () -> Lsm.close index; remove_store dir) @@ fun () ->
  let rng = Rng.create 2024 in

  (* A sliding window of "sensor readings": each tick inserts a fresh
     reading and expires the oldest once 20K are live. *)
  let window_size = 20_000 in
  let ticks = 60_000 in
  let live = Queue.create () in
  let fresh_reading id =
    let x = Rng.float rng 1.0 and y = Rng.float rng 1.0 in
    let w = Rng.float rng 0.002 and h = Rng.float rng 0.002 in
    Entry.make
      (Rect.make ~xmin:x ~ymin:y
         ~xmax:(Float.min 1.0 (x +. w))
         ~ymax:(Float.min 1.0 (y +. h)))
      id
  in
  let query_region = Rect.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.5 ~ymax:0.5 in
  for tick = 0 to ticks - 1 do
    let reading = fresh_reading tick in
    Lsm.insert index reading;
    Queue.add reading live;
    if Queue.length live > window_size then begin
      (* An expired reading still in the buffer is dropped; one already
         in a component is tombstoned, and stays there, filtered from
         every answer, until a merge absorbs its component. *)
      let expired = Queue.pop live in
      ignore (Lsm.delete index expired)
    end;
    if tick mod 10_000 = 9_999 then begin
      let hits, stats = Lsm.query_list index query_region in
      Printf.printf
        "tick %6d: %5d live | query -> %3d hits, %3d leaf I/Os over %d components\n" (tick + 1)
        (Lsm.count index) (List.length hits) stats.Rtree.leaf_visited
        (List.length (Lsm.components index))
    end
  done;

  (* The components always form a geometric ladder; its entry counts
     include the dead entries no merge has absorbed yet. *)
  Printf.printf "\ncomponent ladder (slot, entries): ";
  List.iter (fun (slot, n) -> Printf.printf "(%d, %d) " slot n) (Lsm.components index);
  print_newline ();
  Lsm.validate index;
  Printf.printf "validated: every component is a structurally sound PR-tree\n"
