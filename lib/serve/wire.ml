(* The serving tier's wire codec.  See wire.mli for the frame layout.

   Everything here is total: the decoder validates the length prefix
   before buffering, the CRC before trusting any payload byte, and every
   payload field (counts against remaining bytes, finite ordered
   rectangle coordinates, known enum bytes) before constructing a value,
   so adversarial frames come back as typed [proto_error]s and no
   exception ever crosses the module boundary.  The CRC is the storage
   layer's CRC-32C ({!Prt_storage.Page.crc32c}) — one checksum algorithm
   for pages on disk and frames on the wire. *)

module Rect = Prt_geom.Rect
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Page = Prt_storage.Page

let version = 1
let default_max_payload = 1 lsl 20
let header_size = 8
let trailer_size = 4
let envelope = header_size + trailer_size

type error_code = E_overloaded | E_quota | E_deadline | E_malformed | E_draining | E_too_large

type completeness = C_complete | C_partial of { skipped : int } | C_timed_out of { skipped : int }
type query_result = { qr_completeness : completeness; qr_hits : Entry.t list }

type breaker = B_closed | B_open of { cooldown_left : int } | B_half_open

type health = {
  h_conns : int;
  h_draining : bool;
  h_generation : int;
  h_breaker : breaker;
  h_quota_tokens : float;
  h_backend : string;  (* active read backend: "mmap" or "pread" *)
  h_mmap_served : int;
  h_mmap_crc_skipped : int;
  h_mmap_fallbacks : int;
}

type request =
  | Query of { id : int; deadline_ms : int; windows : Rect.t array }
  | Health_check of { id : int }
  | Drain of { id : int }

type reply =
  | Results of { id : int; results : query_result array }
  | Health_status of { id : int; health : health }
  | Error of { id : int; code : error_code; retry_after_ms : float; detail : string }

type msg = Request of request | Reply of reply

type proto_error =
  | Truncated of { have : int; need : int }
  | Oversized of { length : int; limit : int }
  | Unknown_version of int
  | Unknown_kind of int
  | Bad_crc
  | Bad_payload of string

let msg_id = function
  | Request (Query { id; _ } | Health_check { id } | Drain { id }) -> id
  | Reply (Results { id; _ } | Health_status { id; _ } | Error { id; _ }) -> id

(* --- message kinds --- *)

let kind_query = 1
let kind_health_check = 2
let kind_drain = 3
let kind_results = 16
let kind_health_status = 17
let kind_error = 18

let kind_of_msg = function
  | Request (Query _) -> kind_query
  | Request (Health_check _) -> kind_health_check
  | Request (Drain _) -> kind_drain
  | Reply (Results _) -> kind_results
  | Reply (Health_status _) -> kind_health_status
  | Reply (Error _) -> kind_error

let code_byte = function
  | E_overloaded -> 1
  | E_quota -> 2
  | E_deadline -> 3
  | E_malformed -> 4
  | E_draining -> 5
  | E_too_large -> 6

let code_of_byte = function
  | 1 -> Some E_overloaded
  | 2 -> Some E_quota
  | 3 -> Some E_deadline
  | 4 -> Some E_malformed
  | 5 -> Some E_draining
  | 6 -> Some E_too_large
  | _ -> None

let error_code_label = function
  | E_overloaded -> "overloaded"
  | E_quota -> "quota-exceeded"
  | E_deadline -> "deadline-expired"
  | E_malformed -> "malformed-frame"
  | E_draining -> "draining"
  | E_too_large -> "too-large"

(* --- frame writer ---

   Every frame is written in place: the header with a zero length, then
   each field with [Bytes.set_*] at a running offset, then the payload
   length and the CRC are patched in ([seal]).  [encode] runs the
   writer over a buffer of exactly the frame's size, [Out.add] over the
   free end of a connection's output buffer, and [Out.add_results]
   writes a results reply straight from the executor's hit buffers.
   There is no intermediate [Buffer] and no payload copy.  The [put_*]
   helpers return the next offset; they are inlined, so no float or
   int64 field is boxed on the way. *)

let[@inline] put_u8 b p v =
  Bytes.set_uint8 b p (v land 0xFF);
  p + 1

let[@inline] put_u16 b p v =
  Bytes.set_uint16_le b p (v land 0xFFFF);
  p + 2

let[@inline] put_u32 b p v =
  Bytes.set_int32_le b p (Int32.of_int (v land 0xFFFFFFFF));
  p + 4

let[@inline] put_i64 b p v =
  Bytes.set_int64_le b p (Int64.of_int v);
  p + 8

let[@inline] put_f64 b p v =
  Bytes.set_int64_le b p (Int64.bits_of_float v);
  p + 8

(* Direct field access: a cross-module accessor would box its float. *)
let put_rect b p (r : Rect.t) =
  let p = put_f64 b p r.Rect.xmin in
  let p = put_f64 b p r.Rect.ymin in
  let p = put_f64 b p r.Rect.xmax in
  put_f64 b p r.Rect.ymax

let string16_length s = min (String.length s) 0xFFFF

let put_string16 b p s =
  let n = string16_length s in
  let p = put_u16 b p n in
  Bytes.blit_string s 0 b p n;
  p + n

let put_completeness b p = function
  | C_complete -> put_u32 b (put_u8 b p 0) 0
  | C_partial { skipped } -> put_u32 b (put_u8 b p 1) skipped
  | C_timed_out { skipped } -> put_u32 b (put_u8 b p 2) skipped

let put_breaker b p = function
  | B_closed -> put_u32 b (put_u8 b p 0) 0
  | B_open { cooldown_left } -> put_u32 b (put_u8 b p 1) cooldown_left
  | B_half_open -> put_u32 b (put_u8 b p 2) 0

(* A results slot is 9 bytes of completeness and count, then 40 per
   hit; a health reply is fixed-size. *)
let slot_size = 9
let hit_size = 40
let health_size = 55

let payload_size = function
  | Request (Query { windows; _ }) -> 12 + (32 * Array.length windows)
  | Request (Health_check _ | Drain _) -> 4
  | Reply (Results { results; _ }) ->
      Array.fold_left
        (fun acc { qr_hits; _ } -> acc + slot_size + (hit_size * List.length qr_hits))
        8 results
  | Reply (Health_status _) -> health_size
  | Reply (Error { detail; _ }) -> 15 + string16_length detail

let put_header b base kind =
  Bytes.set_int32_le b base 0l;
  Bytes.set_uint8 b (base + 4) version;
  Bytes.set_uint8 b (base + 5) kind;
  Bytes.set_uint16_le b (base + 6) 0;
  base + header_size

(* Close the frame that starts at [base] and whose payload ends at
   [stop]: patch in the length, append the CRC; returns the frame's end. *)
let seal b base stop =
  let plen = stop - base - header_size in
  Bytes.set_int32_le b base (Int32.of_int plen);
  let crc = Page.crc32c b ~pos:(base + 4) ~len:(header_size - 4 + plen) in
  Bytes.set_int32_le b stop (Int32.of_int (crc land 0xFFFFFFFF));
  stop + trailer_size

let rec put_entries b p = function
  | [] -> p
  | (e : Entry.t) :: tl -> put_entries b (put_rect b (put_i64 b p e.Entry.id) e.Entry.rect) tl

let put_payload b p = function
  | Request (Query { id; deadline_ms; windows }) ->
      let p = put_u32 b p id in
      let p = put_u32 b p deadline_ms in
      let p = ref (put_u32 b p (Array.length windows)) in
      for i = 0 to Array.length windows - 1 do
        p := put_rect b !p windows.(i)
      done;
      !p
  | Request (Health_check { id } | Drain { id }) -> put_u32 b p id
  | Reply (Results { id; results }) ->
      let p = put_u32 b p id in
      let p = ref (put_u32 b p (Array.length results)) in
      for i = 0 to Array.length results - 1 do
        let { qr_completeness; qr_hits } = results.(i) in
        let q = put_completeness b !p qr_completeness in
        p := put_entries b (put_u32 b q (List.length qr_hits)) qr_hits
      done;
      !p
  | Reply (Health_status { id; health }) ->
      let p = put_u32 b p id in
      let p = put_u32 b p health.h_conns in
      let p = put_u8 b p (if health.h_draining then 1 else 0) in
      let p = put_i64 b p health.h_generation in
      let p = put_breaker b p health.h_breaker in
      let p = put_f64 b p health.h_quota_tokens in
      let p = put_u8 b p (if health.h_backend = "mmap" then 1 else 0) in
      let p = put_i64 b p health.h_mmap_served in
      let p = put_i64 b p health.h_mmap_crc_skipped in
      put_i64 b p health.h_mmap_fallbacks
  | Reply (Error { id; code; retry_after_ms; detail }) ->
      let p = put_u32 b p id in
      let p = put_u8 b p (code_byte code) in
      let p = put_f64 b p retry_after_ms in
      put_string16 b p detail

let put_frame b base m = seal b base (put_payload b (put_header b base (kind_of_msg m)) m)
let frame_size m = payload_size m + envelope

let encode m =
  let frame = Bytes.create (frame_size m) in
  ignore (put_frame frame 0 m);
  frame

(* A results reply read straight from hit buffers: slot [i] is
   [hits.(i)], its completeness the label [Rtree.completeness] gives the
   buffer's statistics (without sorting the skipped pages; a complete
   slot allocates nothing), its hits from the coordinate column and
   [Rtree.hits_id].  Loops and a local [ref], not local recursive
   functions: those would allocate closures. *)

let completeness_of_stats (s : Rtree.query_stats) =
  if s.Rtree.timed_out then C_timed_out { skipped = s.Rtree.skipped_subtrees }
  else if s.Rtree.skipped_subtrees > 0 then C_partial { skipped = s.Rtree.skipped_subtrees }
  else C_complete

let results_payload_size hits n =
  let size = ref 8 in
  for i = 0 to n - 1 do
    size := !size + slot_size + (hit_size * Rtree.hits_length hits.(i))
  done;
  !size

let put_hits_slot b p h =
  let p = put_completeness b p (completeness_of_stats (Rtree.hits_stats h)) in
  let len = Rtree.hits_length h in
  let c = Rtree.hits_coords h in
  let p = ref (put_u32 b p len) in
  for j = 0 to len - 1 do
    let k = 4 * j in
    let q = put_i64 b !p (Rtree.hits_id h j) in
    let q = put_f64 b q (Float.Array.get c k) in
    let q = put_f64 b q (Float.Array.get c (k + 1)) in
    let q = put_f64 b q (Float.Array.get c (k + 2)) in
    p := put_f64 b q (Float.Array.get c (k + 3))
  done;
  !p

let put_hits_results b base ~id hits n =
  let p = put_u32 b (put_header b base kind_results) id in
  let p = ref (put_u32 b p n) in
  for i = 0 to n - 1 do
    p := put_hits_slot b !p hits.(i)
  done;
  seal b base !p

module Out = struct
  type t = {
    mutable buf : bytes;
    mutable pos : int;  (* first pending byte *)
    mutable fill : int;  (* one past the last pending byte *)
  }

  let create () = { buf = Bytes.create 4096; pos = 0; fill = 0 }
  let length o = o.fill - o.pos
  let is_empty o = o.fill = o.pos
  let bytes o = o.buf
  let pos o = o.pos

  let drop o n =
    if n < 0 || n > length o then invalid_arg "Wire.Out.drop";
    o.pos <- o.pos + n;
    if o.pos = o.fill then begin
      o.pos <- 0;
      o.fill <- 0
    end

  (* Room for [n] more bytes at [fill]: slide the pending bytes to the
     front, then double until they fit.  The buffer keeps its
     high-water capacity. *)
  let reserve o n =
    if o.fill + n > Bytes.length o.buf then begin
      let live = length o in
      if live + n > Bytes.length o.buf then begin
        let cap = ref (2 * Bytes.length o.buf) in
        while live + n > !cap do
          cap := 2 * !cap
        done;
        let buf = Bytes.create !cap in
        Bytes.blit o.buf o.pos buf 0 live;
        o.buf <- buf
      end
      else Bytes.blit o.buf o.pos o.buf 0 live;
      o.pos <- 0;
      o.fill <- live
    end

  let add o m =
    reserve o (frame_size m);
    o.fill <- put_frame o.buf o.fill m

  let add_results o ~id hits n =
    reserve o (results_payload_size hits n + envelope);
    o.fill <- put_hits_results o.buf o.fill ~id hits n
end

(* --- payload reader --- *)

(* Local, never-escaping parse failure: any bounds or validity violation
   inside a CRC-clean payload becomes [Bad_payload]. *)
exception Bad of string

type cursor = { buf : bytes; mutable off : int; limit : int }

let need c n = if c.limit - c.off < n then raise (Bad "payload truncated")

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.off) in
  c.off <- c.off + 1;
  v

let get_u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.buf c.off in
  c.off <- c.off + 2;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.off) land 0xFFFFFFFF in
  c.off <- c.off + 4;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.buf c.off) in
  c.off <- c.off + 8;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (Bytes.get_int64_le c.buf c.off) in
  c.off <- c.off + 8;
  v

(* The rectangle at [off], known to lie in the payload, checked as a
   window or hit must be: a non-finite coordinate first, then an
   inverted box.  Direct loads, so no coordinate is boxed. *)
let[@inline] finite x = x -. x = 0.0
let[@inline] f64_at buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)

let check_rect buf off =
  let xmin = f64_at buf off in
  let ymin = f64_at buf (off + 8) in
  let xmax = f64_at buf (off + 16) in
  let ymax = f64_at buf (off + 24) in
  if not (finite xmin && finite ymin && finite xmax && finite ymax) then
    raise (Bad "non-finite coordinate");
  if xmin > xmax || ymin > ymax then raise (Bad "inverted rectangle")

let get_rect c =
  need c 32;
  check_rect c.buf c.off;
  let r = Rect.read c.buf c.off in
  c.off <- c.off + 32;
  r

(* A slot's [n] hits, 40 bytes each from the cursor on (an int64 id,
   then the rectangle), which [get_count] has checked lie in the
   payload.  One pass checks them in wire order, so the first bad hit
   names the error [get_rect] would; a second builds the list from the
   last hit back to the first.  No closure, no per-field call. *)
let get_hits c n =
  let base = c.off in
  for j = 0 to n - 1 do
    check_rect c.buf (base + (hit_size * j) + 8)
  done;
  let hits = ref [] in
  for j = n - 1 downto 0 do
    let p = base + (hit_size * j) in
    let id = Int64.to_int (Bytes.get_int64_le c.buf p) in
    hits := { Entry.rect = Rect.read c.buf (p + 8); id } :: !hits
  done;
  c.off <- base + (hit_size * n);
  !hits

let get_string16 c =
  let n = get_u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.off n in
  c.off <- c.off + n;
  s

(* [get_count c ~unit_size] reads a u32 element count and pre-checks it
   against the remaining payload, so a lying count cannot provoke a huge
   allocation before the per-element reads would fail anyway. *)
let get_count c ~unit_size =
  let n = get_u32 c in
  if n * unit_size > c.limit - c.off then raise (Bad "count exceeds payload");
  n

let get_completeness c =
  let tag = get_u8 c in
  let skipped = get_u32 c in
  match tag with
  | 0 -> C_complete
  | 1 -> C_partial { skipped }
  | 2 -> C_timed_out { skipped }
  | _ -> raise (Bad "unknown completeness tag")

let msg_of_payload ~kind c =
  let m =
    if kind = kind_query then begin
      let id = get_u32 c in
      let deadline_ms = get_u32 c in
      let n = get_count c ~unit_size:32 in
      let windows = Array.init n (fun _ -> get_rect c) in
      Request (Query { id; deadline_ms; windows })
    end
    else if kind = kind_health_check then Request (Health_check { id = get_u32 c })
    else if kind = kind_drain then Request (Drain { id = get_u32 c })
    else if kind = kind_results then begin
      let id = get_u32 c in
      let n = get_count c ~unit_size:9 in
      let results =
        Array.init n (fun _ ->
            let qr_completeness = get_completeness c in
            let hits = get_count c ~unit_size:hit_size in
            { qr_completeness; qr_hits = get_hits c hits })
      in
      Reply (Results { id; results })
    end
    else if kind = kind_health_status then begin
      let id = get_u32 c in
      let h_conns = get_u32 c in
      let h_draining = get_u8 c <> 0 in
      let h_generation = get_i64 c in
      let h_breaker =
        let tag = get_u8 c in
        let cooldown_left = get_u32 c in
        match tag with
        | 0 -> B_closed
        | 1 -> B_open { cooldown_left }
        | 2 -> B_half_open
        | _ -> raise (Bad "unknown breaker tag")
      in
      let h_quota_tokens = get_f64 c in
      let h_backend =
        match get_u8 c with
        | 0 -> "pread"
        | 1 -> "mmap"
        | _ -> raise (Bad "unknown backend tag")
      in
      let h_mmap_served = get_i64 c in
      let h_mmap_crc_skipped = get_i64 c in
      let h_mmap_fallbacks = get_i64 c in
      Reply
        (Health_status
           {
             id;
             health =
               {
                 h_conns;
                 h_draining;
                 h_generation;
                 h_breaker;
                 h_quota_tokens;
                 h_backend;
                 h_mmap_served;
                 h_mmap_crc_skipped;
                 h_mmap_fallbacks;
               };
           })
    end
    else if kind = kind_error then begin
      let id = get_u32 c in
      let code =
        match code_of_byte (get_u8 c) with
        | Some code -> code
        | None -> raise (Bad "unknown error code")
      in
      let retry_after_ms = get_f64 c in
      let detail = get_string16 c in
      Reply (Error { id; code; retry_after_ms; detail })
    end
    else raise (Bad "unreachable kind")
  in
  if c.off <> c.limit then raise (Bad "trailing payload bytes");
  m

let known_kind k =
  k = kind_query || k = kind_health_check || k = kind_drain || k = kind_results
  || k = kind_health_status || k = kind_error

let decode ?(max_payload = default_max_payload) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    `Error (Bad_payload "decode: range outside buffer")
  else if len < 4 then `Need header_size
  else
    let plen = Int32.to_int (Bytes.get_int32_le buf pos) land 0xFFFFFFFF in
    if plen > max_payload then `Error (Oversized { length = plen; limit = max_payload })
    else
      let total = plen + envelope in
      if len < total then `Need total
      else
        let crc_stored =
          Int32.to_int (Bytes.get_int32_le buf (pos + header_size + plen)) land 0xFFFFFFFF
        in
        let crc = Page.crc32c buf ~pos:(pos + 4) ~len:(header_size - 4 + plen) in
        if crc <> crc_stored then `Error Bad_crc
        else
          let ver = Char.code (Bytes.get buf (pos + 4)) in
          if ver <> version then `Error (Unknown_version ver)
          else
            let kind = Char.code (Bytes.get buf (pos + 5)) in
            if not (known_kind kind) then `Error (Unknown_kind kind)
            else
              let c = { buf; off = pos + header_size; limit = pos + header_size + plen } in
              match msg_of_payload ~kind c with
              | m -> `Msg (m, total)
              | exception Bad why -> `Error (Bad_payload why)

let decode_all ?max_payload buf =
  let len = Bytes.length buf in
  match decode ?max_payload buf ~pos:0 ~len with
  | `Msg (m, consumed) ->
      if consumed = len then Ok m else Error (Bad_payload "trailing bytes after frame")
  | `Need n -> Error (Truncated { have = len; need = n })
  | `Error e -> Error e

(* --- streaming reader --- *)

module Reader = struct
  type t = {
    max_payload : int;
    mutable data : bytes;
    mutable start : int;  (* first unconsumed byte *)
    mutable fill : int;  (* one past the last received byte *)
    mutable dead : proto_error option;  (* sticky: the stream is unsynchronized *)
  }

  let create ?(max_payload = default_max_payload) () =
    { max_payload; data = Bytes.create 4096; start = 0; fill = 0; dead = None }

  let buffered t = t.fill - t.start

  let feed t buf pos len =
    if len > 0 then begin
      if t.fill + len > Bytes.length t.data then begin
        (* Compact, then grow if still needed. *)
        let live = buffered t in
        Bytes.blit t.data t.start t.data 0 live;
        t.start <- 0;
        t.fill <- live;
        if live + len > Bytes.length t.data then begin
          let cap = ref (max 4096 (Bytes.length t.data)) in
          while live + len > !cap do
            cap := !cap * 2
          done;
          let data = Bytes.create !cap in
          Bytes.blit t.data 0 data 0 live;
          t.data <- data
        end
      end;
      Bytes.blit buf pos t.data t.fill len;
      t.fill <- t.fill + len
    end

  let next t =
    match t.dead with
    | Some e -> `Error e
    | None -> (
        match decode ~max_payload:t.max_payload t.data ~pos:t.start ~len:(buffered t) with
        | `Msg (m, consumed) ->
            t.start <- t.start + consumed;
            if t.start = t.fill then begin
              t.start <- 0;
              t.fill <- 0
            end;
            `Msg m
        | `Need _ -> `Need_more
        | `Error e ->
            t.dead <- Some e;
            `Error e)
end

(* --- printers --- *)

let pp_proto_error ppf = function
  | Truncated { have; need } -> Fmt.pf ppf "truncated frame (%d of %d bytes)" have need
  | Oversized { length; limit } -> Fmt.pf ppf "oversized frame (%d > limit %d)" length limit
  | Unknown_version v -> Fmt.pf ppf "unknown protocol version %d" v
  | Unknown_kind k -> Fmt.pf ppf "unknown message kind %d" k
  | Bad_crc -> Fmt.string ppf "frame checksum mismatch"
  | Bad_payload why -> Fmt.pf ppf "malformed payload: %s" why

let pp_completeness ppf = function
  | C_complete -> Fmt.string ppf "complete"
  | C_partial { skipped } -> Fmt.pf ppf "partial (%d subtree(s) skipped)" skipped
  | C_timed_out { skipped } -> Fmt.pf ppf "timed out (%d subtree(s) skipped)" skipped
