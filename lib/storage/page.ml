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
   used by iSCSI and ext4 metadata — computed by the C kernel in
   [crc32c_stubs.c]: the CPU's CRC-32C instruction where there is one,
   slicing-by-8 over one table otherwise, the same value either way.
   The kernel checks no bounds, so the range is checked here; it is a
   [noalloc] call, so no GC moves the buffer under it. *)
external crc32c_unchecked : bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "prt_crc32c_bytes_byte" "prt_crc32c_bytes"
[@@noalloc]

external crc32c_table_unchecked :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "prt_crc32c_bytes_table_byte" "prt_crc32c_bytes_table"
[@@noalloc]

let crc32c buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Page.crc32c";
  crc32c_unchecked buf pos len

let crc32c_table buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Page.crc32c_table";
  crc32c_table_unchecked buf pos len

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
