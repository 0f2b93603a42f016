(* On-page R-tree node format.

   Layout: byte 0 the node kind, bytes 1-2 the entry count (LE), then
   [count] packed 36-byte entries, all within the page payload (the
   storage layer reserves a 16-byte integrity trailer at the end of
   every page).  With the default 4 KB page this leaves room for
   (4096 - 16 - 3) / 36 = 113 entries — the paper's fanout. *)

module Rect = Prt_geom.Rect
module Page = Prt_storage.Page

type kind = Leaf | Internal

type t = { kind : kind; entries : Entry.t array }

let header_size = 3

let capacity ~page_size = (Page.payload_size page_size - header_size) / Entry.size

let kind t = t.kind
let entries t = t.entries
let length t = Array.length t.entries

let make kind entries =
  if Array.length entries > 0xFFFF then invalid_arg "Node.make: too many entries";
  { kind; entries }

let mbr t =
  if length t = 0 then invalid_arg "Node.mbr: empty node";
  Rect.union_map ~f:Entry.rect t.entries

let encode ~page_size t =
  if length t > capacity ~page_size then invalid_arg "Node.encode: node exceeds page capacity";
  let buf = Page.create page_size in
  Page.set_u8 buf 0 (match t.kind with Leaf -> 0 | Internal -> 1);
  Page.set_u16 buf 1 (length t);
  Array.iteri (fun i e -> Entry.write buf (header_size + (i * Entry.size)) e) t.entries;
  buf

let decode buf =
  let kind =
    match Page.get_u8 buf 0 with
    | 0 -> Leaf
    | 1 -> Internal
    | k -> invalid_arg (Printf.sprintf "Node.decode: bad node kind %d" k)
  in
  let count = Page.get_u16 buf 1 in
  let entries = Array.init count (fun i -> Entry.read buf (header_size + (i * Entry.size))) in
  { kind; entries }

(* --- in-place page access ---

   Accessors for an encoded node page, as bytes or inside the mapped
   index file ({!Prt_storage.View}, addressed by the page's absolute
   byte offset [base]).  The descent engine in [Rtree] scans the packed
   entries itself; these read the header. *)

let page_kind buf =
  match Page.get_u8 buf 0 with
  | 0 -> Leaf
  | 1 -> Internal
  | k -> invalid_arg (Printf.sprintf "Node.page_kind: bad node kind %d" k)

let page_length buf = Page.get_u16 buf 1

module View = Prt_storage.View

let map_kind m ~base =
  match View.get_u8 m base with
  | 0 -> Leaf
  | 1 -> Internal
  | k -> invalid_arg (Printf.sprintf "Node.map_kind: bad node kind %d" k)

let map_length m ~base = View.get_u16 m (base + 1)
