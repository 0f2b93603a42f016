(** Fixed-size page buffers with little-endian field codecs.

    All on-disk structures (R-tree nodes, external-sort runs) are encoded
    through this module so the byte layout is defined in one place.

    Every page ends in a {!trailer_size}-byte integrity trailer: a page
    LSN (int64), a format epoch (u16) and a CRC-32C over everything
    before the checksum field.  The trailer is
    stamped by [Pager.write] and verified by [Pager.read] on the file
    backend; codecs must confine themselves to the first
    [payload_size page_size] bytes. *)

type t = bytes

val create : int -> t
(** Zero-filled page of the given size in bytes. *)

val size : t -> int

val set_f64 : t -> int -> float -> unit
val get_f64 : t -> int -> float

val set_i32 : t -> int -> int -> unit
(** Raises [Invalid_argument] if the value does not fit in 32 bits. *)

val get_i32 : t -> int -> int

val set_u16 : t -> int -> int -> unit
val get_u16 : t -> int -> int

val set_u8 : t -> int -> int -> unit
val get_u8 : t -> int -> int

(** {1 Integrity trailer (format v4)} *)

val trailer_size : int
(** 16 bytes: LSN (8) + epoch (2) + reserved (2) + CRC-32C (4). *)

val format_epoch : int
(** The epoch stamped into freshly written pages; 4 for this format
    (columnar node pages, entries in page order).  Pages of formats 2
    (row node pages) and 3 (columns in build order) carry their own
    epoch and are refused, never decoded. *)

val payload_size : int -> int
(** [payload_size page_size] is the number of bytes available to codecs:
    [page_size - trailer_size].  Raises [Invalid_argument] if the page
    is not strictly larger than the trailer. *)

val crc32c : bytes -> pos:int -> len:int -> int
(** CRC-32C (Castagnoli polynomial, reflected 0x82F63B78) of the byte
    range, as a non-negative int below [2^32]. Computed by one C kernel,
    shared with {!View.crc32c}: the CPU's CRC-32C instruction (SSE4.2)
    when CPUID reports it, slicing-by-8 over one table otherwise, with
    the same value on either path.  Raises [Invalid_argument] if the
    range is not inside the buffer. *)

val crc32c_table : bytes -> pos:int -> len:int -> int
(** {!crc32c} through the kernel's table path whatever the CPU, so the
    tests check that path on hosts that take the instruction; the same
    value and range check. *)

val stamp : t -> lsn:int -> unit
(** Fill in the trailer: record [lsn] and {!format_epoch}, zero the
    reserved field, then checksum the page. *)

val lsn : t -> int
(** The LSN recorded in the trailer (garbage on unstamped pages). *)

type integrity =
  | Fresh  (** all-zero page that was never stamped (epoch 0) *)
  | Valid of { epoch : int; lsn : int }  (** checksum and epoch both good *)
  | Torn  (** checksum mismatch, or nonzero bytes with a zero epoch *)
  | Stale_epoch of int  (** checksum good but written by another format *)

val check : t -> integrity
(** Classify a page read back from a device.  A page passes as [Fresh]
    only if every byte is zero; any other unstamped or
    checksum-mismatching content is [Torn]. *)

val pp_integrity : Format.formatter -> integrity -> unit
