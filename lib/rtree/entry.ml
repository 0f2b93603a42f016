(* An R-tree entry: a rectangle plus a 32-bit payload.  In a leaf the
   payload identifies the data object; in an internal node it is the page
   id of the child whose subtree the rectangle bounds.  The record
   encoding (dataset files, WAL records, sorted runs) is the paper's
   36-byte record: four 8-byte coordinates and a 4-byte pointer.  Node
   pages keep the same 36 bytes per entry as columns ([Node]), giving
   fanout 113 with 4 KB pages. *)

module Rect = Prt_geom.Rect
module Page = Prt_storage.Page

type t = { rect : Rect.t; id : int }

let make rect id = { rect; id }

let rect e = e.rect
let id e = e.id

let equal a b = a.id = b.id && Rect.equal a.rect b.rect

(* Total orders on the four kd-coordinates of the PR-tree's 4-D view,
   with ties broken by the remaining coordinates and finally the id so
   that duplicated geometry still orders deterministically (the paper
   assumes all coordinates distinct; we do not). *)
let compare_dim dim a b =
  let c = Float.compare (Rect.coord dim a.rect) (Rect.coord dim b.rect) in
  if c <> 0 then c
  else begin
    let c = Rect.compare a.rect b.rect in
    if c <> 0 then c else Int.compare a.id b.id
  end

let size = 36

let write buf off e =
  Page.set_f64 buf off (Rect.xmin e.rect);
  Page.set_f64 buf (off + 8) (Rect.ymin e.rect);
  Page.set_f64 buf (off + 16) (Rect.xmax e.rect);
  Page.set_f64 buf (off + 24) (Rect.ymax e.rect);
  Page.set_i32 buf (off + 32) e.id

let read buf off =
  let id = Page.get_i32 buf (off + 32) in
  { rect = Rect.read buf off; id }

let pp ppf e = Fmt.pf ppf "#%d:%a" e.id Rect.pp e.rect

(* Record-file instantiation used by the external bulk loaders. *)
module File = Prt_extsort.Record_file.Make (struct
  type nonrec t = t

  let size = size
  let write = write
  let read = read
end)
