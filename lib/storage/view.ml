(* Raw little-endian field loads over a read-only memory mapping.

   This is the mapped half of the Page_view abstraction: the same
   accessors {!Page} provides over [bytes], but over a float64
   [Bigarray.Array1] window of the whole index file, addressed by
   absolute byte offset.  The query hot path reads rect floats straight
   out of the mapping with no syscall, no lock and no copy; everything
   here must therefore be allocation-free.

   The mapping is float64 because node pages (format v3 onwards) keep
   their coordinates in 8-byte-aligned columns: a coordinate is one
   [Array1.unsafe_get], which ocamlopt compiles to a single unboxed
   load, and the descent kernels in [Rtree] do that inline.  Every other
   field — header bytes, int32 ids, the trailer the CRC gate checks — is
   cut out of the 64-bit word that holds it: [Int64.bits_of_float]
   returns the word's bits untouched (a NaN payload included), and the
   shifts and masks stay on unboxed int64s.  The format is
   little-endian; {!Mmap_pager} refuses to map on a big-endian host. *)

type map = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

external madvise_random : map -> unit = "prt_view_madvise_random" [@@noalloc]

let length (m : map) = 8 * Bigarray.Array1.dim m

(* The 64-bit word holding byte [off]. *)
let[@inline] word (m : map) off = Int64.bits_of_float (Bigarray.Array1.unsafe_get m (off lsr 3))

(* The word shifted so that byte [off] is the low byte; callers mask the
   field out, which works for any field that does not cross the word. *)
let[@inline] bits m off = Int64.to_int (Int64.shift_right_logical (word m off) (8 * (off land 7)))

let get_u8 m off = bits m off land 0xFF

let get_u16 m off =
  if off land 7 < 7 then bits m off land 0xFFFF else get_u8 m off lor (get_u8 m (off + 1) lsl 8)

let get_i32 m off =
  let w =
    if off land 7 <= 4 then bits m off
    else
      get_u8 m off
      lor (get_u8 m (off + 1) lsl 8)
      lor (get_u8 m (off + 2) lsl 16)
      lor (get_u8 m (off + 3) lsl 24)
  in
  (* Sign-extend from 32 bits, matching Page.get_i32's int32 decode.
     OCaml's native int is 63-bit, so the shift is int_size - 32, not
     32 — shifting by 32 would park bit 30 on the sign bit. *)
  let s = Sys.int_size - 32 in
  (w lsl s) asr s

(* CRC-32C over a mapped window, bit-identical to {!Page.crc32c} —
   verified against a bytewise reference in the test suite — and
   computed the same way, slicing-by-8 over {!Page.crc_tables}: one
   mapped word is the step's two little-endian 32-bit halves.  A range
   that does not start on a word boundary goes bytewise up to the first
   one.  Used to validate a mapped page once per (page, generation);
   after that the mapping is trusted. *)
let[@inline] crc_byte t c b = Array.unsafe_get t ((c lxor b) land 0xFF) lxor (c lsr 8)

let crc32c (m : map) ~pos ~len =
  if pos < 0 || len < 0 || pos > length m - len then invalid_arg "View.crc32c";
  let t = Page.crc_tables in
  let stop = pos + len in
  let c = ref 0xFFFFFFFF and i = ref pos in
  while !i < stop && !i land 7 <> 0 do
    c := crc_byte t !c (get_u8 m !i);
    incr i
  done;
  while !i + 8 <= stop do
    let w = word m !i in
    let lo = Int64.to_int w land 0xFFFFFFFF lxor !c
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := crc_byte t !c (get_u8 m !i);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* Trailer check over a mapped page at absolute offset [base], the
   mapped analogue of {!Page.check}: epoch 0 means never stamped
   (legitimate only when all-zero), a CRC mismatch means torn, and a
   page of another format epoch is never trusted. *)
let page_valid (m : map) ~base ~page_size =
  let epoch = get_u16 m (base + page_size - 8) in
  if epoch = 0 then begin
    let rec zero i = i = page_size || (get_u8 m (base + i) = 0 && zero (i + 1)) in
    zero 0
  end
  else if epoch <> Page.format_epoch then false
  else
    let stored = get_i32 m (base + page_size - 4) land 0xFFFFFFFF in
    stored = crc32c m ~pos:base ~len:(page_size - 4)
