(* In-place selection (quickselect) over boxed arrays: the median
   splits of the external PR-tree build's sample tree and of the
   kdB-tree, and the test suite's closure-based pseudo-PR-tree oracle.
   Selection extracts the B most extreme rectangles and the median of
   the remainder without a full sort at every node; the pseudo-PR-tree's
   own kernel does the same on unboxed columns ([Prt_prtree.Pseudo]). *)

let swap arr i j =
  let tmp = arr.(i) in
  arr.(i) <- arr.(j);
  arr.(j) <- tmp

(* Deterministic pivot scrambling: a cheap LCG keyed on the range bounds
   avoids quadratic behaviour on crafted inputs while keeping runs
   reproducible. *)
let pivot_index lo hi =
  let span = hi - lo in
  let h = (lo * 2654435761 + hi * 40503) land max_int in
  lo + (h mod span)

let rec partition_at ~cmp arr lo hi n =
  (* Establish: arr.(lo..n) <= arr.(n) <= arr.(n..hi), for lo <= n < hi. *)
  if hi - lo > 1 then begin
    let p = pivot_index lo hi in
    swap arr p lo;
    let pivot = arr.(lo) in
    (* Hoare-style partition of arr[lo+1 .. hi). *)
    let i = ref (lo + 1) and j = ref (hi - 1) in
    while !i <= !j do
      while !i <= !j && cmp arr.(!i) pivot < 0 do incr i done;
      while !i <= !j && cmp arr.(!j) pivot > 0 do decr j done;
      if !i < !j then begin
        swap arr !i !j;
        incr i;
        decr j
      end
      else if !i = !j then incr i
    done;
    let mid = !j in
    swap arr lo mid;
    if n < mid then partition_at ~cmp arr lo mid n
    else if n > mid then partition_at ~cmp arr (mid + 1) hi n
  end

let select ~cmp arr lo hi n =
  if not (lo <= n && n < hi && hi <= Array.length arr) then
    invalid_arg "Select.select: index out of range";
  partition_at ~cmp arr lo hi n;
  arr.(n)

let smallest_to_front ~cmp arr lo hi k =
  if k < 0 || lo + k > hi then invalid_arg "Select.smallest_to_front";
  if k > 0 && lo + k < hi then partition_at ~cmp arr lo hi (lo + k - 1)

let median ~cmp arr lo hi =
  if hi <= lo then invalid_arg "Select.median: empty range";
  let n = lo + ((hi - lo - 1) / 2) in
  select ~cmp arr lo hi n
