(* Fixed-size page buffers and the little-endian field codecs used by
   every on-page format in the repository (R-tree nodes, sorted-run
   records).  Keeping the codec in one place keeps each layout built
   on it — the 36-byte record of the paper's experiments (4 x float64 +
   int32), the columnar node page of [Node] — auditable.

   Every page ends in a 16-byte trailer:

     [page_size-16 .. page_size-9]   page LSN (int64 LE, monotonic per device)
     [page_size-8  .. page_size-7]   format epoch (u16 LE; 4 = this format)
     [page_size-6  .. page_size-5]   reserved (zero)
     [page_size-4  .. page_size-1]   CRC-32C over bytes [0, page_size-4)

   The trailer is owned by the storage layer: {!Pager.write} stamps it
   and {!Pager.read} verifies it, while node and record codecs confine
   themselves to the first [payload_size] bytes.  An epoch of zero marks
   a page that was never stamped; such a page is only legitimate when it
   is all zeros (a freshly allocated page).  The epoch names the format
   of everything the payload holds: format 3 replaced format 2's row
   node pages with columns, format 4 keeps every node page's entries
   in page order ([Node]), and a page of another epoch is refused
   ([Stale_epoch]) rather than decoded. *)

type t = bytes

let create size = Bytes.make size '\000'

let size = Bytes.length

let set_f64 page off v = Bytes.set_int64_le page off (Int64.bits_of_float v)
let get_f64 page off = Int64.float_of_bits (Bytes.get_int64_le page off)

let set_i32 page off v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg "Page.set_i32: value exceeds 32 bits";
  Bytes.set_int32_le page off (Int32.of_int v)

let get_i32 page off = Int32.to_int (Bytes.get_int32_le page off)

let set_u16 page off v =
  if v < 0 || v > 0xFFFF then invalid_arg "Page.set_u16: value exceeds 16 bits";
  Bytes.set_uint16_le page off v

let get_u16 page off = Bytes.get_uint16_le page off

let set_u8 page off v =
  if v < 0 || v > 0xFF then invalid_arg "Page.set_u8: value exceeds 8 bits";
  Bytes.set_uint8 page off v

let get_u8 page off = Bytes.get_uint8 page off

(* --- the integrity trailer --- *)

let trailer_size = 16
let format_epoch = 4

let payload_size page_size =
  if page_size <= trailer_size then
    invalid_arg "Page.payload_size: page smaller than the integrity trailer";
  page_size - trailer_size

(* CRC-32C (Castagnoli), reflected polynomial 0x82F63B78 — the checksum
   used by iSCSI and ext4 metadata — computed slicing-by-8: table [k]
   (entries [256k .. 256k+255]) advances a byte's contribution past [k]
   further bytes, so one step folds 8 bytes, read as two little-endian
   32-bit words, with eight lookups; a tail of fewer than 8 bytes goes
   bytewise through table 0, the classic one-byte table.  Plain OCaml
   ints hold the 32-bit state on 64-bit platforms.  The tables are built
   eagerly and shared with {!View}: pread workers and mapped readers
   verify pages from several domains at once. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let[@inline] word buf i =
  let w = get32u buf i in
  Int32.to_int (if big_endian () then swap32 w else w) land 0xFFFFFFFF

let crc32c buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Page.crc32c";
  let t = crc_tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = word buf !i lxor !c and hi = word buf (!i + 4) in
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
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let set_crc page off v = Bytes.set_int32_le page off (Int32.of_int (v land 0xFFFFFFFF))
let get_crc page off = Int32.to_int (Bytes.get_int32_le page off) land 0xFFFFFFFF

let stamp page ~lsn =
  let size = Bytes.length page in
  let off = size - trailer_size in
  Bytes.set_int64_le page off (Int64.of_int lsn);
  set_u16 page (off + 8) format_epoch;
  set_u16 page (off + 10) 0;
  set_crc page (size - 4) (crc32c page ~pos:0 ~len:(size - 4))

let lsn page = Int64.to_int (Bytes.get_int64_le page (Bytes.length page - trailer_size))

type integrity =
  | Fresh
  | Valid of { epoch : int; lsn : int }
  | Torn
  | Stale_epoch of int

let all_zero page =
  let n = Bytes.length page in
  let rec go i = i = n || (Bytes.unsafe_get page i = '\000' && go (i + 1)) in
  go 0

let check page =
  let size = Bytes.length page in
  if size <= trailer_size then invalid_arg "Page.check: page smaller than the trailer";
  let off = size - trailer_size in
  let epoch = get_u16 page (off + 8) in
  if epoch = 0 then if all_zero page then Fresh else Torn
  else if get_crc page (size - 4) <> crc32c page ~pos:0 ~len:(size - 4) then Torn
  else if epoch <> format_epoch then Stale_epoch epoch
  else Valid { epoch; lsn = lsn page }

let pp_integrity ppf = function
  | Fresh -> Fmt.string ppf "fresh"
  | Valid { epoch; lsn } -> Fmt.pf ppf "valid(epoch=%d lsn=%d)" epoch lsn
  | Torn -> Fmt.string ppf "torn"
  | Stale_epoch e -> Fmt.pf ppf "stale-epoch(%d)" e
