(* Answer checking.  The timed loops record each answer's result count
   and an order-independent id checksum into preallocated per-slot
   arrays; afterwards the recorded answers are compared with an
   independent code path. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree

(* A multiplicative id hash; the checksum of a result is the wrapping
   sum of its ids' hashes, so it does not depend on result order. *)
let mix id =
  let x = (id + 1) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let hits_checksum hits =
  let s = ref 0 in
  for j = 0 to Rtree.hits_length hits - 1 do
    s := !s + mix (Rtree.hits_get hits j).Entry.id
  done;
  !s

(* Per-slot recorded answers.  A slot answered again with a different
   count or checksum is [unstable]; [times] counts answers per slot, so
   a wrong slot fails every attempt that returned it. *)
type answers = { cnt : int array; sum : int array; times : int array; mutable unstable : int }

let answers n =
  { cnt = Array.make n (-1); sum = Array.make n 0; times = Array.make n 0; unstable = 0 }

let note a slot c s =
  a.times.(slot) <- a.times.(slot) + 1;
  if a.cnt.(slot) < 0 then begin
    a.cnt.(slot) <- c;
    a.sum.(slot) <- s
  end
  else if a.cnt.(slot) <> c || a.sum.(slot) <> s then a.unstable <- a.unstable + 1

(* Failed operations, where an operation answers [group] consecutive
   slots (a request of [group] windows): the unstable repeats, plus
   every attempt at an operation any of whose recorded slots differs
   from [expect slot]. *)
let wrong ?(group = 1) a ~expect =
  let bad = ref a.unstable in
  for op = 0 to (Array.length a.cnt / group) - 1 do
    let differs = ref false in
    for slot = op * group to ((op + 1) * group) - 1 do
      if a.cnt.(slot) >= 0 && (a.cnt.(slot), a.sum.(slot)) <> expect slot then differs := true
    done;
    if !differs then bad := !bad + a.times.(op * group)
  done;
  !bad

(* The reference: an in-memory STR tree (a different bulk loader, the
   memory pager, the pread descent) over the same entries. *)
let reference_tree entries =
  let pool = Prt_storage.Buffer_pool.create (Prt_storage.Pager.create_memory ()) in
  Prt_rtree.Bulk_str.load pool (Array.copy entries)

let reference_answer tree w =
  let c = ref 0 and s = ref 0 in
  ignore
    (Rtree.query tree w ~f:(fun e ->
         incr c;
         s := !s + mix e.Entry.id));
  (!c, !s)

(* Brute force over the entries whose [alive] flag is set. *)
let brute entries alive w =
  let c = ref 0 and s = ref 0 in
  Array.iteri
    (fun i e ->
      if alive.(i) && Rect.intersects e.Entry.rect w then begin
        incr c;
        s := !s + mix e.Entry.id
      end)
    entries;
  (!c, !s)
