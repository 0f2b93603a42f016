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
   field — header bytes, int32 ids, the trailer's epoch and stored CRC —
   is cut out of the 64-bit word that holds it: [Int64.bits_of_float]
   returns the word's bits untouched (a NaN payload included), and the
   shifts and masks stay on unboxed int64s.  The CRC gate itself reads
   no word here: it hands the mapping's memory to the C kernel behind
   {!Page.crc32c}.  The format is little-endian; {!Mmap_pager} refuses
   to map on a big-endian host. *)

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

(* CRC-32C over a mapped window: the kernel behind {!Page.crc32c}, over
   the mapping's memory, so bit-identical to it over the same bytes.
   The range is checked here, as the kernel checks none.  Used to
   validate a mapped page once per (page, generation); after that the
   mapping is trusted. *)
external crc32c_unchecked : map -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "prt_crc32c_map_byte" "prt_crc32c_map"
[@@noalloc]

let crc32c (m : map) ~pos ~len =
  if pos < 0 || len < 0 || pos > length m - len then invalid_arg "View.crc32c";
  crc32c_unchecked m pos len

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
