(** Top-down Greedy Split bulk loading (García–López–Leutenegger), the
    paper's strongest query-time baseline.

    Builds top-down by repeated binary partitions: each cut is the one
    of O(B) candidates over the four kd-orderings minimizing the sum of
    the two resulting bounding-box areas; subtree sizes are rounded to
    powers of B (footnote 1 of the paper), so one node per level may be
    underfull, and undersized groups become thin single-child chains so
    all leaves share a level. *)

val load : Prt_storage.Buffer_pool.t -> Entry.t array -> Rtree.t
(** In-memory construction, O(N log^2 N)-ish work. For the I/O-counted
    external variant see {!Ext_load.load_tgs}. *)

(** {1 The greedy cut, shared with {!Ext_load.load_tgs}} *)

val pow_int : int -> int -> int
(** [pow_int b e] is [b{^e}]. *)

val height_for : cap:int -> int -> int
(** The height of a TGS tree over [n] entries: the least [h >= 1] with
    [cap{^h} >= n]. *)

val run_boxes : unit:int -> int -> ((Entry.t -> unit) -> unit) -> Prt_geom.Rect.t array
(** [run_boxes ~unit n iter]: the bounding boxes of the consecutive
    [unit]-entry runs (the last may be shorter) of the [n] entries that
    [iter] hands out, in order. *)

val best_cut : unit:int -> Prt_geom.Rect.t array array -> int * int
(** [best_cut ~unit runs], with [runs.(dim)] the {!run_boxes} of the
    ordering by kd-coordinate [dim]: the ordering and the number of
    entries on the left of the cut between two runs that minimizes the
    sum of the two sides' bounding-box areas.  The first minimum wins,
    in ordering then position order.  Raises [Invalid_argument] if no
    ordering has two runs. *)
