(** Raw little-endian field loads over a read-only memory mapping.

    The mapped half of the Page_view abstraction: the accessors
    {!Page} provides over [bytes], but over a mapped window of the
    whole index file, addressed by absolute byte offset.  The window is
    a float64 Bigarray, so an 8-byte-aligned coordinate is one inline
    [Bigarray.Array1.unsafe_get]; the narrower loads below cut their
    field out of the 64-bit word that holds it.  All reads are
    allocation-free. *)

type map = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Word [k] holds bytes [8k .. 8k+7] of the file. *)

external madvise_random : map -> unit = "prt_view_madvise_random" [@@noalloc]
(** Advise the kernel that access will be random (MADV_RANDOM where
    available; a no-op elsewhere). *)

val length : map -> int
(** Size of the mapping in bytes. *)

val get_u8 : map -> int -> int
val get_u16 : map -> int -> int

val get_i32 : map -> int -> int
(** Sign-extending 32-bit load, matching {!Page.get_i32}. *)

val crc32c : map -> pos:int -> len:int -> int
(** CRC-32C (Castagnoli) over [len] bytes at [pos]; bit-identical to
    {!Page.crc32c} over the same bytes, computed by the same C kernel
    over the mapping's memory. Raises [Invalid_argument] if the range
    is not inside the mapping. *)

val page_valid : map -> base:int -> page_size:int -> bool
(** Integrity check of the mapped page at absolute offset [base]: the
    mapped analogue of {!Page.check}.  [true] for a valid trailer of
    this build's {!Page.format_epoch} or an all-zero (never-written)
    page; [false] for torn or stale. *)
