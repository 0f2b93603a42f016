(** In-place selection on array ranges (expected linear time).

    All functions operate on the half-open range [\[lo, hi)] of the array
    and permute elements in place: the median splits of the external
    PR-tree build's sample tree and of the kdB-tree, and the test suite's
    closure-based pseudo-PR-tree oracle.  (The pseudo-PR-tree's own
    kernel selects on unboxed columns, in [Prt_prtree.Pseudo].) *)

val partition_at : cmp:('a -> 'a -> int) -> 'a array -> int -> int -> int -> unit
(** [partition_at ~cmp arr lo hi n] permutes [\[lo, hi)] so that the
    element at index [n] is the one a full sort would put there, every
    element of [\[lo, n)] compares [<=] to it and every element of
    [(n, hi)] compares [>=] to it. Requires [lo <= n < hi]. *)

val select : cmp:('a -> 'a -> int) -> 'a array -> int -> int -> int -> 'a
(** [select ~cmp arr lo hi n] is [partition_at] followed by reading
    [arr.(n)]: the order statistic of rank [n - lo] within the range.
    Raises [Invalid_argument] on a bad range. *)

val smallest_to_front : cmp:('a -> 'a -> int) -> 'a array -> int -> int -> int -> unit
(** [smallest_to_front ~cmp arr lo hi k] moves the [k] smallest elements
    of [\[lo, hi)] (by [cmp], in arbitrary internal order) into
    [\[lo, lo+k)]. Used to peel priority leaves off a rectangle set. *)

val median : cmp:('a -> 'a -> int) -> 'a array -> int -> int -> 'a
(** [median ~cmp arr lo hi] selects the lower median of the range and
    leaves the range partitioned around it. *)
