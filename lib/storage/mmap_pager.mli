(** Read-only mmap backend for query serving.

    One shared float64 mapping of the whole index file; query descent
    loads rect floats straight out of it, inline, with no syscall, no
    lock, no copy and no decode, and reads the other fields through
    {!View}.  Mapped pages are CRC-verified once
    per (page, committed generation) and then trusted; the writer swaps
    the verification memo on every commit ({!refresh}) so stale
    verifications never survive an overwrite.  See DESIGN.md "Storage
    backends" for the decision matrix and the torn-read protocol. *)

type t

type window
(** An immutable (map, page-count) pair.  Readers grab one window per
    descent; it stays valid even if the writer remaps concurrently. *)

type counters = {
  c_windows_served : int;  (** mapped page scans served *)
  c_crc_skipped : int;  (** verifications skipped via the per-generation memo *)
  c_crc_verified : int;  (** CRC sweeps actually run *)
  c_fallbacks : int;  (** node visits served through pread instead of the mapping *)
}

val attach : path:string -> page_size:int -> gen:int -> t option
(** Map [path] read-only for serving.  [gen] is the currently committed
    generation (tags the initial verification memo).  [None] when the
    file cannot be mapped (empty, a page size that is not a multiple of
    8, a big-endian host, or the platform refuses); callers then stay
    on the pread backend. *)

val refresh : t -> gen:int -> unit
(** Writer-side, after a commit is durable: remap if the file grew and
    invalidate all memoized CRC verifications, retagging them with the
    new committed generation [gen]. *)

val window : t -> window
(** The current window; take once per descent. *)

val map : window -> View.map
val pages : window -> int
val page_size : t -> int

val cache_gen : t -> int
(** Generation tag of the current verification memo (the last
    [refresh]'s [gen]). *)

val verified : t -> window -> int -> bool
(** [verified t w id]: may the mapped bytes of page [id] be trusted?
    Consults the memo first (allocation-free skip), else runs one
    CRC-32C sweep and memoizes success.  [false] — torn or stale page —
    means serve this page through pread instead. *)

val served : t -> unit
(** Count one mapped page scan. *)

val fell_back : t -> unit
(** Count one fallback to the pread path. *)

val counters : t -> counters

val close : t -> unit
(** Close the backing fd.  Idempotent.  Existing windows stay readable
    until collected. *)
