(** Bounded map with least-recently-used eviction. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]; raises [Invalid_argument] if [capacity < 1]. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; marks the binding most recently used.  A hit allocates
    nothing. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test without touching recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Insert or update a binding (marking it most recently used) and return
    the evicted least-recently-used binding, if the capacity was
    exceeded. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Remove and return a binding. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Iterate over all bindings in unspecified order, without touching
    recency. *)

val clear : ('k, 'v) t -> unit
