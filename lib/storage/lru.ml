(* Generic LRU map: hash table plus an intrusive doubly-linked recency
   list.  Used by the buffer pool to decide which cached page to evict,
   and directly testable in isolation.  A hit allocates nothing: each
   node carries the [Some] of itself that its neighbours link to, and
   the [Some] of its value that [find] answers with. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v option; (* always [Some]: built when the value is set *)
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
  self : ('k, 'v) node option; (* [Some] of this node *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
}

let value_of node = Option.get node.value

let create capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create (2 * capacity); head = None; tail = None }

let length t = Hashtbl.length t.table
let capacity t = t.capacity

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- node.self | None -> t.tail <- node.self);
  t.head <- node.self

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
      unlink t node;
      push_front t node

let find t key =
  match Hashtbl.find t.table key with
  | node ->
      touch t node;
      node.value
  | exception Not_found -> None

let mem t key = Hashtbl.mem t.table key

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key;
      node.value

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- Some value;
      touch t node;
      None
  | None ->
      let rec node = { key; value = Some value; prev = None; next = None; self = Some node } in
      Hashtbl.replace t.table key node;
      push_front t node;
      if Hashtbl.length t.table > t.capacity then begin
        match t.tail with
        | None -> assert false
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            Some (lru.key, value_of lru)
      end
      else None

let iter t f = Hashtbl.iter (fun key node -> f key (value_of node)) t.table

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
