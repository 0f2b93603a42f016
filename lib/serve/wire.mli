(** The serving tier's length-prefixed binary protocol.

    A frame is a 8-byte header, a payload, and a CRC-32C trailer:

    {v
      bytes 0..3    payload length N (u32 LE)
      byte  4       protocol version (currently 1)
      byte  5       message kind
      bytes 6..7    reserved (zero)
      bytes 8..8+N  payload
      last 4 bytes  CRC-32C over bytes [4, 8+N)  (version..payload)
    v}

    Decoding is total: every way a frame can be wrong — truncated,
    oversized length prefix, checksum mismatch, unknown version or kind,
    malformed payload — comes back as a typed {!proto_error}; no
    exception ever escapes {!decode} or the streaming {!Reader}, so a
    hostile byte stream can at worst earn itself a typed error reply and
    a closed connection.  Requests and replies share one frame space
    (the kind byte distinguishes them), so both ends run the same
    decoder.

    One writer produces every frame, in place: the header, then each
    field at a running offset, then the payload length and the CRC
    patched in — no intermediate buffer, no payload copy, no boxed
    field.  {!encode} runs it over a buffer of exactly the frame's
    size; {!Out} appends frames to a connection's growable output
    buffer, and {!Out.add_results} writes a results reply straight from
    the executor's {!Prt_rtree.Rtree.hits} buffers, byte-identical to
    {!encode} of the same answer. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry

val version : int

val default_max_payload : int
(** 1 MiB: frames claiming more are rejected before any buffering. *)

(** Typed rejection codes carried by {!Error} replies.  Every shed path
    of the server maps to one of these — overload and quota rejections
    additionally carry a retry-after hint. *)
type error_code =
  | E_overloaded  (** admission control shed the request; retry later *)
  | E_quota  (** the connection's token bucket is empty *)
  | E_deadline  (** the request's deadline expired before execution *)
  | E_malformed  (** unparseable frame; the connection will close *)
  | E_draining  (** the server is shutting down gracefully *)
  | E_too_large
      (** more windows than the server accepts per request, or a reply
          larger than its frame cap *)

(** Wire form of {!Prt_rtree.Rtree.completeness} — partiality is typed
    end to end, never inferred from a smaller result. *)
type completeness =
  | C_complete
  | C_partial of { skipped : int }
  | C_timed_out of { skipped : int }

type query_result = { qr_completeness : completeness; qr_hits : Entry.t list }

(** Wire form of {!Prt_storage.Retry.breaker_health}. *)
type breaker = B_closed | B_open of { cooldown_left : int } | B_half_open

type health = {
  h_conns : int;  (** live connections *)
  h_draining : bool;
  h_generation : int;  (** committed MVCC generation being served *)
  h_breaker : breaker;  (** storage circuit-breaker health *)
  h_quota_tokens : float;  (** tokens left in this connection's bucket *)
  h_backend : string;  (** active read backend: ["mmap"] or ["pread"] *)
  h_mmap_served : int;  (** mapped page scans served (0 on pread) *)
  h_mmap_crc_skipped : int;  (** CRC checks skipped via the per-generation memo *)
  h_mmap_fallbacks : int;  (** mapped descents that fell back to pread *)
}

type request =
  | Query of { id : int; deadline_ms : int; windows : Rect.t array }
      (** [id] is an opaque correlation id echoed in the reply (replies
          to one connection stay in request order; ids let pipelined
          clients double-check).  [deadline_ms = 0] means no deadline;
          otherwise the budget starts when the server parses the frame
          and is propagated into the query descent. *)
  | Health_check of { id : int }
  | Drain of { id : int }
      (** Ask the server to drain: it replies with a final health
          snapshot, finishes in-flight work, and shuts down. *)

type reply =
  | Results of { id : int; results : query_result array }
      (** One result per request window, in order. *)
  | Health_status of { id : int; health : health }
  | Error of { id : int; code : error_code; retry_after_ms : float; detail : string }
      (** [retry_after_ms] is a backoff hint ([0] when retrying cannot
          help, e.g. [E_malformed]). *)

type msg = Request of request | Reply of reply

type proto_error =
  | Truncated of { have : int; need : int }
  | Oversized of { length : int; limit : int }
  | Unknown_version of int
  | Unknown_kind of int
  | Bad_crc
  | Bad_payload of string

val msg_id : msg -> int

val encode : msg -> bytes
(** A complete frame, in a buffer of exactly its size. *)

val results_payload_size : Prt_rtree.Rtree.hits array -> int -> int
(** [results_payload_size hits n] is the payload size, in bytes, of a
    [Results] reply whose [n] slots are [hits.(0)] to [hits.(n-1)] —
    known before anything is written, so a caller can refuse a reply
    over its frame cap. *)

(** A growable output buffer: frames are appended at its end, and the
    pending bytes [[pos, pos + length)] of {!bytes} leave from its
    front.  It keeps its high-water capacity. *)
module Out : sig
  type t

  val create : unit -> t
  val length : t -> int
  (** Pending bytes. *)

  val is_empty : t -> bool

  val bytes : t -> bytes
  (** The backing store; replaced when an append grows it. *)

  val pos : t -> int
  (** Offset of the first pending byte in {!bytes}. *)

  val drop : t -> int -> unit
  (** [drop o n] consumes the first [n] pending bytes (written out).
      Raises [Invalid_argument] when fewer are pending. *)

  val add : t -> msg -> unit
  (** Append one frame: {!encode}'s bytes, written in place. *)

  val add_results : t -> id:int -> Prt_rtree.Rtree.hits array -> int -> unit
  (** [add_results o ~id hits n] appends the frame of
      [Reply (Results { id; results })] where slot [i < n] holds
      [hits.(i)]'s entries, in {!Prt_rtree.Rtree.hits_get} order, and
      its completeness: [C_timed_out] if the descent timed out, else
      [C_partial] if it skipped subtrees, else [C_complete], with the
      skipped-subtree count. *)
end

val decode :
  ?max_payload:int ->
  bytes ->
  pos:int ->
  len:int ->
  [ `Msg of msg * int | `Need of int | `Error of proto_error ]
(** Decode one frame from [buf[pos, pos+len)].  [`Msg (m, consumed)]
    on success; [`Need n] when the frame is incomplete and needs [n]
    bytes total from [pos] ([n > len]); [`Error] on any malformation.
    Never raises. *)

val decode_all : ?max_payload:int -> bytes -> (msg, proto_error) result
(** Decode a buffer that must hold exactly one whole frame: an
    incomplete frame is a [Truncated] error here. *)

(** Incremental frame reader for a connection's byte stream. *)
module Reader : sig
  type t

  val create : ?max_payload:int -> unit -> t
  val feed : t -> bytes -> int -> int -> unit
  (** [feed t buf pos len] appends received bytes. *)

  val next : t -> [ `Msg of msg | `Need_more | `Error of proto_error ]
  (** The next complete message, consuming its bytes.  After an
      [`Error] the stream is unsynchronized: the reader keeps returning
      it and the connection should close. *)

  val buffered : t -> int
  (** Bytes received but not yet consumed (mid-frame when positive and
      [next] says [`Need_more] — an EOF here is a mid-frame disconnect). *)
end

val error_code_label : error_code -> string
val pp_proto_error : Format.formatter -> proto_error -> unit
val pp_completeness : Format.formatter -> completeness -> unit
