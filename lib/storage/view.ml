(* Raw little-endian field loads over a read-only memory mapping.

   This is the mapped half of the Page_view abstraction: the same
   accessors {!Page} provides over [bytes], but over a
   [Bigarray.Array1] char window of the whole index file, addressed by
   absolute byte offset.  The query hot path reads rect floats straight
   out of the mapping with no syscall, no lock and no copy; everything
   here must therefore be allocation-free.

   Integer loads are plain OCaml over [Array1.unsafe_get] — ints stay
   untagged-immediate so they never box.  The float load goes through a
   C stub ([@unboxed] [@@noalloc]) because entry offsets (3 + 36*i
   inside a page) are unaligned, ruling out a float64 bigarray view,
   and an [Int64] reassembly in OCaml would box the intermediate
   without flambda. *)

type map =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external get_f64 : map -> (int[@untagged]) -> (float[@unboxed])
  = "prt_view_get_f64_byte" "prt_view_get_f64_native"
[@@noalloc]

external madvise_random : map -> unit = "prt_view_madvise_random" [@@noalloc]

let length (m : map) = Bigarray.Array1.dim m

let get_u8 (m : map) off = Char.code (Bigarray.Array1.unsafe_get m off)

let get_u16 (m : map) off =
  get_u8 m off lor (get_u8 m (off + 1) lsl 8)

let get_i32 (m : map) off =
  let w =
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
   computed the same way, slicing-by-8 over {!Page.crc_tables}.  Used
   to validate a mapped page once per (page, generation); after that
   the mapping is trusted. *)
external get32u : map -> int -> int32 = "%caml_bigstring_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let[@inline] word (m : map) i =
  let w = get32u m i in
  Int32.to_int (if big_endian () then swap32 w else w) land 0xFFFFFFFF

let crc32c (m : map) ~pos ~len =
  if pos < 0 || len < 0 || pos > length m - len then invalid_arg "View.crc32c";
  let t = Page.crc_tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = word m !i lxor !c and hi = word m (!i + 4) in
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
  for j = stop8 to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor get_u8 m j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Trailer check over a mapped page at absolute offset [base], the
   mapped analogue of {!Page.check}: epoch 0 means never stamped
   (legitimate only when all-zero), a CRC mismatch means torn. *)
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
