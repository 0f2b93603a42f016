(* The serving tier under test.

   Codec half: encode/decode round-trips (unit and qcheck), adversarial
   frames (truncated, oversized, corrupted, unknown version/kind, bad
   payloads) always yielding typed [proto_error]s, and the streaming
   reader's fragmentation / stickiness behaviour.

   Server half: the event loop is driven one [Server.step] at a time
   over injected socketpair ends — no listeners, no extra domains — so
   every scenario (pipelining, quotas, overload, deadline-in-queue,
   drain, malformed frames, slow clients, kill-point crashes) replays
   deterministically, with the virtual clock standing in for time. *)

module Rect = Prt_geom.Rect
module Rng = Prt_util.Rng
module Deadline = Prt_util.Deadline
module Page = Prt_storage.Page
module Pager = Prt_storage.Pager
module Failpoint = Prt_storage.Failpoint
module Retry = Prt_storage.Retry
module Superblock = Prt_storage.Superblock
module Entry = Prt_rtree.Entry
module Rtree = Prt_rtree.Rtree
module Index_file = Prt_rtree.Index_file
module Prtree = Prt_prtree.Prtree
module Wire = Prt_serve.Wire
module Quota = Prt_serve.Quota
module Server = Prt_serve.Server
module Client = Prt_serve.Client

(* --- wire codec --- *)

let roundtrip msg =
  match Wire.decode_all (Wire.encode msg) with
  | Ok m -> Alcotest.(check bool) "decode(encode) is the identity" true (m = msg)
  | Error e -> Alcotest.failf "round-trip failed: %a" Wire.pp_proto_error e

let sample_rect = Rect.make ~xmin:0.125 ~ymin:0.25 ~xmax:0.5 ~ymax:0.875

let sample_msgs =
  let hit i = Entry.make sample_rect i in
  [
    Wire.(Request (Query { id = 1; deadline_ms = 0; windows = [||] }));
    Wire.(
      Request
        (Query { id = 0xFFFFFF; deadline_ms = 2_500; windows = [| sample_rect; sample_rect |] }));
    Wire.(Request (Health_check { id = 2 }));
    Wire.(Request (Drain { id = 3 }));
    Wire.(Reply (Results { id = 4; results = [||] }));
    Wire.(
      Reply
        (Results
           {
             id = 5;
             results =
               [|
                 { qr_completeness = C_complete; qr_hits = [ hit 1; hit 2; hit 3 ] };
                 { qr_completeness = C_partial { skipped = 7 }; qr_hits = [] };
                 { qr_completeness = C_timed_out { skipped = 123 }; qr_hits = [ hit 9 ] };
               |];
           }));
    Wire.(
      Reply
        (Health_status
           {
             id = 6;
             health =
               {
                 h_conns = 3;
                 h_draining = true;
                 h_generation = 42;
                 h_breaker = B_open { cooldown_left = 17 };
                 h_quota_tokens = 12.5;
                 h_backend = "mmap";
                 h_mmap_served = 12_345;
                 h_mmap_crc_skipped = 12_000;
                 h_mmap_fallbacks = 2;
               };
           }));
    Wire.(
      Reply
        (Health_status
           {
             id = 7;
             health =
               {
                 h_conns = 0;
                 h_draining = false;
                 h_generation = 1;
                 h_breaker = B_half_open;
                 h_quota_tokens = Float.infinity;
                 h_backend = "pread";
                 h_mmap_served = 0;
                 h_mmap_crc_skipped = 0;
                 h_mmap_fallbacks = 0;
               };
           }));
    Wire.(
      Reply (Error { id = 8; code = E_overloaded; retry_after_ms = 50.0; detail = "queue full" }));
    Wire.(Reply (Error { id = 9; code = E_malformed; retry_after_ms = 0.0; detail = "" }));
  ]

let test_wire_roundtrip () = List.iter roundtrip sample_msgs

(* --- golden frames: the exact bytes of one frame per message kind --- *)

let hex_of_bytes b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let golden_rect = Rect.make ~xmin:(-1.5) ~ymin:0.0 ~xmax:3.0 ~ymax:1e-3

let golden_frames =
  [
    ( Wire.(Request (Query { id = 7; deadline_ms = 250; windows = [| sample_rect; golden_rect |] })),
      "4c0000000101000007000000fa00000002000000000000000000c03f000000000000d03f000000000000e03f"
      ^ "000000000000ec3f000000000000f8bf00000000000000000000000000000840fca9f1d24d62503ffd55f912"
    );
    (Wire.(Request (Health_check { id = 8 })), "040000000102000008000000dbf556e3");
    (Wire.(Request (Drain { id = 9 })), "040000000103000009000000ab731056");
    ( Wire.(
        Reply
          (Results
             {
               id = 10;
               results =
                 [|
                   {
                     qr_completeness = C_complete;
                     qr_hits = [ Entry.make sample_rect 1; Entry.make golden_rect 2 ];
                   };
                   { qr_completeness = C_partial { skipped = 3 }; qr_hits = [] };
                   { qr_completeness = C_timed_out { skipped = 4 }; qr_hits = [ Entry.make golden_rect 5 ] };
                 |];
             })),
      "9b000000011000000a000000030000000000000000020000000100000000000000000000000000c03f0000"
      ^ "00000000d03f000000000000e03f000000000000ec3f0200000000000000000000000000f8bf0000000000"
      ^ "0000000000000000000840fca9f1d24d62503f0103000000000000000204000000010000000500000000"
      ^ "000000000000000000f8bf00000000000000000000000000000840fca9f1d24d62503fb902360f" );
    ( Wire.(
        Reply
          (Health_status
             {
               id = 11;
               health =
                 {
                   h_conns = 2;
                   h_draining = false;
                   h_generation = 5;
                   h_breaker = B_open { cooldown_left = 3 };
                   h_quota_tokens = 12.5;
                   h_backend = "mmap";
                   h_mmap_served = 100;
                   h_mmap_crc_skipped = 90;
                   h_mmap_fallbacks = 1;
                 };
             })),
      "37000000011100000b00000002000000000500000000000000010300000000000000000029400164000000"
      ^ "000000005a0000000000000001000000000000005e9ac8c7" );
    ( Wire.(
        Reply (Error { id = 12; code = E_quota; retry_after_ms = 2.5; detail = "token bucket empty" })),
      "21000000011200000c0000000200000000000004401200746f6b656e206275636b657420656d707479261168c6"
    );
  ]

(* Protocol version 1's bytes, pinned: [encode] and an output buffer
   write them exactly, and they decode back to the message. *)
let test_wire_golden () =
  List.iter
    (fun (msg, hex) ->
      let name = Printf.sprintf "golden frame of message %d" (Wire.msg_id msg) in
      Alcotest.(check string) (name ^ ": encode") hex (hex_of_bytes (Wire.encode msg));
      let o = Wire.Out.create () in
      Wire.Out.add o msg;
      Alcotest.(check string) (name ^ ": output buffer") hex
        (hex_of_bytes (Bytes.sub (Wire.Out.bytes o) (Wire.Out.pos o) (Wire.Out.length o)));
      match Wire.decode_all (Wire.encode msg) with
      | Ok m -> Alcotest.(check bool) (name ^ ": decodes back") true (m = msg)
      | Error e -> Alcotest.failf "%s: %a" name Wire.pp_proto_error e)
    golden_frames

(* A random message drawn entirely from the scenario seed, covering
   every constructor; finite coordinates only (the codec rejects the
   rest by design, tested separately). *)
let msg_of_scenario (sc : Helpers.scenario) =
  let rng = Rng.create sc.Helpers.sc_seed in
  let rect () = Helpers.random_rect rng in
  let hits () = List.init (Rng.int rng 6) (fun _ -> Entry.make (rect ()) (Rng.int rng 1_000_000)) in
  let id = Rng.int rng 0xFFFFFF in
  let completeness () =
    match Rng.int rng 3 with
    | 0 -> Wire.C_complete
    | 1 -> Wire.C_partial { skipped = Rng.int rng 1000 }
    | _ -> Wire.C_timed_out { skipped = Rng.int rng 1000 }
  in
  match Rng.int rng 6 with
  | 0 ->
      Wire.(
        Request
          (Query
             {
               id;
               deadline_ms = Rng.int rng 100_000;
               windows = Array.init (1 + (sc.Helpers.sc_size mod 13)) (fun _ -> rect ());
             }))
  | 1 -> Wire.(Request (Health_check { id }))
  | 2 -> Wire.(Request (Drain { id }))
  | 3 ->
      Wire.(
        Reply
          (Results
             {
               id;
               results =
                 Array.init (sc.Helpers.sc_size mod 7) (fun _ ->
                     { Wire.qr_completeness = completeness (); qr_hits = hits () });
             }))
  | 4 ->
      let breaker =
        match Rng.int rng 3 with
        | 0 -> Wire.B_closed
        | 1 -> Wire.B_open { cooldown_left = Rng.int rng 64 }
        | _ -> Wire.B_half_open
      in
      Wire.(
        Reply
          (Health_status
             {
               id;
               health =
                 {
                   h_conns = Rng.int rng 100;
                   h_draining = Rng.int rng 2 = 0;
                   h_generation = Rng.int rng 10_000;
                   h_breaker = breaker;
                   h_quota_tokens = Rng.float rng 1000.0;
                   h_backend = (if Rng.int rng 2 = 0 then "mmap" else "pread");
                   h_mmap_served = Rng.int rng 1_000_000;
                   h_mmap_crc_skipped = Rng.int rng 1_000_000;
                   h_mmap_fallbacks = Rng.int rng 1_000;
                 };
             }))
  | _ ->
      let code =
        match Rng.int rng 6 with
        | 0 -> Wire.E_overloaded
        | 1 -> Wire.E_quota
        | 2 -> Wire.E_deadline
        | 3 -> Wire.E_malformed
        | 4 -> Wire.E_draining
        | _ -> Wire.E_too_large
      in
      let detail = String.init (Rng.int rng 32) (fun i -> Char.chr (32 + ((i * 7) mod 95))) in
      Wire.(Reply (Error { id; code; retry_after_ms = Rng.float rng 60_000.0; detail }))

let qcheck_wire_roundtrip =
  QCheck.Test.make ~name:"wire: random messages round-trip bit-exactly" ~count:300
    (Helpers.arbitrary_scenario ~max_size:40 ())
    (fun sc ->
      let msg = msg_of_scenario sc in
      match Wire.decode_all (Wire.encode msg) with Ok m -> m = msg | Error _ -> false)

(* Corrupting any single byte of a valid frame must yield a typed error
   (or, for a length-field corruption, an incomplete-frame verdict) —
   never an exception.  [decode] sees exactly the frame's bytes, so a
   bigger claimed length comes back as [`Need]. *)
let qcheck_wire_corruption =
  QCheck.Test.make ~name:"wire: single-byte corruption never raises, never desyncs" ~count:300
    (Helpers.arbitrary_scenario ~max_size:40 ())
    (fun sc ->
      let rng = Rng.create (sc.Helpers.sc_seed lxor 0x5eed) in
      let frame = Wire.encode (msg_of_scenario sc) in
      let pos = Rng.int rng (Bytes.length frame) in
      let flip = 1 + Rng.int rng 255 in
      Bytes.set frame pos (Char.chr (Char.code (Bytes.get frame pos) lxor flip));
      match Wire.decode frame ~pos:0 ~len:(Bytes.length frame) with
      | `Msg _ | `Need _ | `Error _ -> true)

(* The results writer reads an answer straight from hit buffers: its
   bytes must equal [encode] of the same answer as entry lists, for
   complete, partial, timed-out and empty slots.  Buffers are reused
   across cases of every size, and the output buffer already holds
   part of a frame, so appends past pending bytes are covered. *)
let writer_hits = ref [||]
let miss_window = Rect.make ~xmin:2.0 ~ymin:2.0 ~xmax:3.0 ~ymax:3.0

let qcheck_results_writer =
  QCheck.Test.make ~name:"wire: results written from hit buffers equal encode of their entries"
    ~count:150
    (Helpers.arbitrary_scenario ~max_size:300 ())
    (fun sc ->
      let seed = sc.Helpers.sc_seed in
      let rng = Rng.create seed in
      let tree =
        Prtree.load (Helpers.small_pool ()) (Helpers.random_entries ~n:sc.Helpers.sc_size ~seed)
      in
      let n = Rng.int rng 9 in
      if Array.length !writer_hits < n + 2 then
        writer_hits := Array.init (n + 2) (fun i ->
            if i < Array.length !writer_hits then !writer_hits.(i) else Rtree.hits_make ());
      let hits = !writer_hits in
      let windows = Helpers.random_queries ~n ~seed:(seed + 1) in
      let results =
        Array.init n (fun i ->
            let kind = Rng.int rng 4 in
            Rtree.query_into tree (if kind = 3 then miss_window else windows.(i)) ~into:hits.(i);
            let s = Rtree.hits_stats hits.(i) in
            if kind = 1 then s.Rtree.skipped_subtrees <- 1 + Rng.int rng 50;
            if kind = 2 then begin
              s.Rtree.timed_out <- true;
              s.Rtree.skipped_subtrees <- Rng.int rng 3
            end;
            let qr_completeness =
              match Rtree.completeness s with
              | Rtree.Complete -> Wire.C_complete
              | Rtree.Partial { skipped_subtrees; _ } -> Wire.C_partial { skipped = skipped_subtrees }
              | Rtree.Timed_out { skipped_subtrees; _ } ->
                  Wire.C_timed_out { skipped = skipped_subtrees }
            in
            {
              Wire.qr_completeness;
              qr_hits = List.init (Rtree.hits_length hits.(i)) (Rtree.hits_get hits.(i));
            })
      in
      let id = Rng.int rng 0xFFFFFF in
      let expected = Wire.encode (Wire.Reply (Wire.Results { id; results })) in
      let o = Wire.Out.create () in
      let lead = Wire.encode (Wire.Request (Wire.Health_check { id = 1 })) in
      Wire.Out.add o (Wire.Request (Wire.Health_check { id = 1 }));
      Wire.Out.drop o (Rng.int rng (Bytes.length lead));
      let before = Wire.Out.length o in
      Wire.Out.add_results o ~id hits n;
      let got = Bytes.sub (Wire.Out.bytes o) (Wire.Out.pos o + before) (Wire.Out.length o - before) in
      Bytes.equal got expected
      && Wire.results_payload_size hits n + 12 = Bytes.length expected)

let reseal frame =
  (* Recompute the trailer CRC after an intentional header/payload edit,
     so the test reaches the check *behind* the checksum. *)
  let plen = Bytes.length frame - 12 in
  let crc = Page.crc32c frame ~pos:4 ~len:(4 + plen) in
  Bytes.set_int32_le frame (8 + plen) (Int32.of_int (crc land 0xFFFFFFFF));
  frame

let check_error name expected got =
  let pp ppf = function
    | Ok m -> Fmt.pf ppf "Ok (id %d)" (Wire.msg_id m)
    | Error e -> Wire.pp_proto_error ppf e
  in
  if got <> Error expected then
    Alcotest.failf "%s: expected %a, got %a" name Wire.pp_proto_error expected pp got

let test_wire_adversarial () =
  let msg = Wire.(Request (Query { id = 77; deadline_ms = 100; windows = [| sample_rect |] })) in
  let frame () = Wire.encode msg in
  let f = frame () in
  let n = Bytes.length f in
  check_error "truncated"
    (Wire.Truncated { have = n - 1; need = n })
    (Wire.decode_all (Bytes.sub f 0 (n - 1)));
  let f = frame () in
  Bytes.set_int32_le f 0 0x7FFFFFFFl;
  check_error "oversized"
    (Wire.Oversized { length = 0x7FFFFFFF; limit = Wire.default_max_payload })
    (Wire.decode_all f);
  let f = frame () in
  Bytes.set f 9 (Char.chr (Char.code (Bytes.get f 9) lxor 0x40));
  check_error "bit flip in payload" Wire.Bad_crc (Wire.decode_all f);
  let f = frame () in
  Bytes.set f 4 '\009';
  check_error "unknown version" (Wire.Unknown_version 9) (Wire.decode_all (reseal f));
  let f = frame () in
  Bytes.set f 5 '\099';
  check_error "unknown kind" (Wire.Unknown_kind 99) (Wire.decode_all (reseal f));
  (* Payload validation behind a clean CRC: non-finite coordinate,
     inverted rectangle, lying window count, unknown error code. *)
  let f = frame () in
  Bytes.set_int64_le f 20 (Int64.bits_of_float Float.nan);
  (match Wire.decode_all (reseal f) with
  | Error (Wire.Bad_payload _) -> ()
  | r -> check_error "nan coordinate" (Wire.Bad_payload "non-finite coordinate") r);
  let inverted =
    (* xmin/xmax swapped relative to [sample_rect]. *)
    let f = frame () in
    Bytes.set_int64_le f 20 (Int64.bits_of_float 0.9);
    reseal f
  in
  (match Wire.decode_all inverted with
  | Error (Wire.Bad_payload _) -> ()
  | r -> check_error "inverted rect" (Wire.Bad_payload "inverted rectangle") r);
  let f = frame () in
  Bytes.set_int32_le f 16 1000l;
  (match Wire.decode_all (reseal f) with
  | Error (Wire.Bad_payload _) -> ()
  | r -> check_error "lying count" (Wire.Bad_payload "count exceeds payload") r);
  let err = Wire.(Reply (Error { id = 1; code = E_quota; retry_after_ms = 1.0; detail = "x" })) in
  let f = Wire.encode err in
  Bytes.set f 12 '\250';
  (match Wire.decode_all (reseal f) with
  | Error (Wire.Bad_payload _) -> ()
  | r -> check_error "unknown error code" (Wire.Bad_payload "unknown error code") r)

(* A results reply's hits are checked in wire order: within a hit a
   non-finite coordinate before an inverted box, and the first bad hit
   names the error.  Hit [j] of the first slot starts at byte
   [25 + 40j] (8 bytes of header, 8 of id and count, 9 of completeness
   and count); its ymin is 16 bytes in. *)
let test_wire_bad_hits () =
  let msg =
    Wire.(
      Reply
        (Results
           {
             id = 5;
             results =
               [|
                 {
                   qr_completeness = C_complete;
                   qr_hits = List.init 6 (fun i -> Entry.make sample_rect i);
                 };
               |];
           }))
  in
  let hit j = 25 + (40 * j) in
  let with_edits edits =
    let f = Wire.encode msg in
    List.iter (fun (off, v) -> Bytes.set_int64_le f off (Int64.bits_of_float v)) edits;
    Wire.decode_all (reseal f)
  in
  (* xmin 0.9 is past [sample_rect]'s xmax. *)
  let nan_ymin j = (hit j + 16, Float.nan) and inverted j = (hit j + 8, 0.9) in
  check_error "NaN hit before an inverted one" (Wire.Bad_payload "non-finite coordinate")
    (with_edits [ nan_ymin 2; inverted 4 ]);
  check_error "inverted hit alone" (Wire.Bad_payload "inverted rectangle")
    (with_edits [ inverted 4 ]);
  check_error "inverted hit before a NaN one" (Wire.Bad_payload "inverted rectangle")
    (with_edits [ inverted 2; nan_ymin 4 ]);
  match with_edits [] with
  | Ok m -> Alcotest.(check bool) "unedited frame decodes back" true (m = msg)
  | Error e -> Alcotest.failf "unedited frame: %a" Wire.pp_proto_error e

(* A decoded hit costs its list cell, entry and rectangle (3 + 3 + 5
   words) and nothing more: no closure, no boxed coordinate. *)
let test_wire_hit_words () =
  let hits = List.init 1000 (fun i -> Entry.make sample_rect i) in
  let frame =
    Wire.(
      encode
        (Reply (Results { id = 1; results = [| { qr_completeness = C_complete; qr_hits = hits } |] })))
  in
  ignore (Wire.decode_all frame);
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let decoded = Wire.decode_all frame in
  Gc.minor ();
  let per_hit = (Gc.minor_words () -. w0) /. 1000.0 in
  (match decoded with
  | Ok (Wire.Reply (Wire.Results { results = [| { Wire.qr_hits; _ } |]; _ })) ->
      Alcotest.(check bool) "all hits decoded" true (List.equal Entry.equal qr_hits hits)
  | _ -> Alcotest.fail "the frame must decode to its one slot");
  if per_hit > 12.0 then Alcotest.failf "%.1f minor words per decoded hit (at most 12)" per_hit

let test_wire_reader () =
  let m1 = List.nth sample_msgs 1 and m2 = List.nth sample_msgs 5 in
  let stream = Bytes.cat (Wire.encode m1) (Wire.encode m2) in
  let r = Wire.Reader.create () in
  let got = ref [] in
  (* One byte at a time: messages must pop out exactly at their frame
     boundaries, regardless of fragmentation. *)
  Bytes.iteri
    (fun i _ ->
      Wire.Reader.feed r stream i 1;
      match Wire.Reader.next r with
      | `Msg m -> got := m :: !got
      | `Need_more -> ()
      | `Error e -> Alcotest.failf "unexpected reader error: %a" Wire.pp_proto_error e)
    stream;
  (match List.rev !got with
  | [ a; b ] ->
      Alcotest.(check bool) "first message survives fragmentation" true (a = m1);
      Alcotest.(check bool) "second message survives fragmentation" true (b = m2)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l));
  Alcotest.(check int) "no bytes left buffered" 0 (Wire.Reader.buffered r);
  (* A framing error is sticky: the stream is unsynchronized, feeding
     more valid bytes must not resynchronize it. *)
  let bad = reseal (Bytes.cat (Wire.encode m1) Bytes.empty) in
  Bytes.set bad 4 '\007';
  let bad = reseal bad in
  let r = Wire.Reader.create () in
  Wire.Reader.feed r bad 0 (Bytes.length bad);
  (match Wire.Reader.next r with
  | `Error (Wire.Unknown_version 7) -> ()
  | _ -> Alcotest.fail "expected a version error");
  let good = Wire.encode m1 in
  Wire.Reader.feed r good 0 (Bytes.length good);
  match Wire.Reader.next r with
  | `Error (Wire.Unknown_version 7) -> ()
  | _ -> Alcotest.fail "reader error must be sticky"

(* --- quotas --- *)

let test_quota () =
  let q = Quota.create ~now:0.0 ~rate:2.0 ~burst:10.0 () in
  Alcotest.(check (float 1e-9)) "full at creation" 10.0 (Quota.tokens q ~now:0.0);
  (match Quota.try_take q ~now:0.0 ~cost:10.0 with
  | `Ok rest -> Alcotest.(check (float 1e-9)) "drained" 0.0 rest
  | `Retry_after_ms _ -> Alcotest.fail "burst take must succeed");
  (match Quota.try_take q ~now:0.0 ~cost:1.0 with
  | `Retry_after_ms hint -> Alcotest.(check (float 1e-6)) "hint = shortfall/rate" 500.0 hint
  | `Ok _ -> Alcotest.fail "empty bucket must reject");
  (* Refill is continuous: after 1s at 2 tokens/s the same take fits. *)
  (match Quota.try_take q ~now:1.0 ~cost:2.0 with
  | `Ok rest -> Alcotest.(check (float 1e-9)) "refilled exactly rate*dt" 0.0 rest
  | `Retry_after_ms _ -> Alcotest.fail "refilled bucket must admit");
  (* The clock never runs backwards inside the bucket. *)
  (match Quota.try_take q ~now:0.5 ~cost:0.5 with
  | `Retry_after_ms _ -> ()
  | `Ok _ -> Alcotest.fail "a rewound clock must not mint tokens");
  let fixed = Quota.create ~now:0.0 ~rate:0.0 ~burst:4.0 () in
  (match Quota.try_take fixed ~now:0.0 ~cost:4.0 with
  | `Ok _ -> ()
  | `Retry_after_ms _ -> Alcotest.fail "fixed budget take must succeed");
  (match Quota.try_take fixed ~now:1_000.0 ~cost:1.0 with
  | `Retry_after_ms hint ->
      Alcotest.(check bool) "no refill: retrying can never help" true (hint = Float.infinity)
  | `Ok _ -> Alcotest.fail "exhausted fixed budget must reject");
  match Quota.try_take q ~now:1.0 ~cost:100.0 with
  | `Retry_after_ms hint ->
      Alcotest.(check bool) "cost > burst can never fit" true (hint = Float.infinity)
  | `Ok _ -> Alcotest.fail "cost above burst must reject"

(* --- breaker health (the [prt stats] / health-reply accessor) --- *)

let test_breaker_health () =
  let policy =
    { Retry.default_policy with Retry.attempts = 1; breaker_threshold = 1; breaker_cooldown = 2 }
  in
  let eng = Retry.create ~policy () in
  let health () = Retry.breaker_health eng in
  let boom () =
    match Retry.run eng ~op:"test" (fun () -> raise (Pager.Io_error "boom")) with
    | _ -> Alcotest.fail "operation must fail"
    | exception Pager.Io_error _ -> ()
  in
  Alcotest.(check bool) "starts closed" true (health () = Retry.Breaker_closed);
  boom ();
  Alcotest.(check bool) "tripped: full cooldown ahead" true
    (health () = Retry.Breaker_open { cooldown_left = 2 });
  boom ();
  Alcotest.(check bool) "one rejection consumed" true
    (health () = Retry.Breaker_open { cooldown_left = 1 });
  boom ();
  Alcotest.(check bool) "cooldown spent: probe next" true
    (health () = Retry.Breaker_open { cooldown_left = 0 });
  (* The next operation runs as the half-open probe — observable from
     inside it — and closes the breaker on success. *)
  let seen = ref None in
  let v = Retry.run eng ~op:"probe" (fun () -> seen := Some (health ()); 7) in
  Alcotest.(check int) "probe result" 7 v;
  Alcotest.(check bool) "probe saw half-open" true (!seen = Some Retry.Breaker_half_open);
  Alcotest.(check bool) "probe success closes" true (health () = Retry.Breaker_closed);
  let labels =
    List.map
      (fun h -> Format.asprintf "%a" Retry.pp_breaker_health h)
      [ Retry.Breaker_closed; Retry.Breaker_open { cooldown_left = 3 }; Retry.Breaker_half_open ]
  in
  Alcotest.(check bool) "labels are distinct" true
    (List.length (List.sort_uniq compare labels) = 3)

(* --- server harness: manual stepping over injected socketpairs --- *)

let with_server ?chaos ?config ?(n = 300) f =
  let entries = Helpers.random_entries ~n ~seed:11 in
  let path = Filename.temp_file "prt_test_serve" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let idx =
    Index_file.create ~page_size:Helpers.small_page_size path ~build:(fun pool ->
        Prtree.load pool entries)
  in
  Fun.protect ~finally:(fun () -> Index_file.close idx) @@ fun () ->
  let srv = Server.create ?chaos ?config idx in
  let r = f srv idx entries in
  Alcotest.(check int) "no leaked snapshot pins" 0
    (Superblock.pin_count (Index_file.superblock idx));
  r

(* The client half of an injected socketpair: non-blocking reads feed a
   reader; EOF and resets are remembered, not raised. *)
type cend = { fd : Unix.file_descr; reader : Wire.Reader.t; mutable eof : bool }

let connect srv =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.inject srv a;
  Unix.set_nonblock b;
  { fd = b; reader = Wire.Reader.create (); eof = false }

let close_cend c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_raw c buf =
  try
    let n = Unix.write c.fd buf 0 (Bytes.length buf) in
    Alcotest.(check int) "frame fully written" (Bytes.length buf) n
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

let send c req = send_raw c (Wire.encode (Wire.Request req))

let poll c out =
  let buf = Bytes.create 65536 in
  (try
     let rec go () =
       match Unix.read c.fd buf 0 (Bytes.length buf) with
       | 0 -> c.eof <- true
       | r ->
           Wire.Reader.feed c.reader buf 0 r;
           go ()
     in
     go ()
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> c.eof <- true);
  let rec drain () =
    match Wire.Reader.next c.reader with
    | `Msg m ->
        out := !out @ [ m ];
        drain ()
    | `Need_more | `Error _ -> ()
  in
  drain ()

(* Step the server (zero select timeout: everything is socketpair-local)
   until [pred] holds, polling every connection's client end. *)
let step_until ?(max_steps = 500) srv conns pred =
  let steps = ref 0 in
  while (not (pred ())) && !steps < max_steps do
    incr steps;
    ignore (Server.step srv ~timeout:0.0);
    List.iter (fun (c, out) -> poll c out) conns
  done;
  if not (pred ()) then Alcotest.fail "server event loop did not converge"

(* Returns the retry-after hint of the expected typed error reply. *)
let expect_error name code = function
  | Wire.Reply (Wire.Error { code = got; retry_after_ms; _ }) ->
      if got <> code then
        Alcotest.failf "%s: expected %s, got %s" name (Wire.error_code_label code)
          (Wire.error_code_label got);
      retry_after_ms
  | m -> Alcotest.failf "%s: expected an error reply, got id %d" name (Wire.msg_id m)

let test_server_query_oracle () =
  with_server @@ fun srv _idx entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  let windows = Helpers.random_queries ~n:12 ~seed:23 in
  send c (Wire.Query { id = 7; deadline_ms = 0; windows });
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 1);
  (match !out with
  | [ Wire.Reply (Wire.Results { id; results }) ] ->
      Alcotest.(check int) "request id echoed" 7 id;
      Alcotest.(check int) "one result per window" (Array.length windows) (Array.length results);
      Array.iteri
        (fun i w ->
          (match results.(i).Wire.qr_completeness with
          | Wire.C_complete -> ()
          | _ -> Alcotest.fail "fault-free queries must be complete");
          Alcotest.(check (list int))
            "hits match the brute-force oracle" (Helpers.brute_force entries w)
            (Helpers.ids_of results.(i).Wire.qr_hits))
        windows
  | l -> Alcotest.failf "expected exactly one reply, got %d" (List.length l));
  let r = Server.report srv in
  Alcotest.(check int) "one request served" 1 r.Server.served;
  Alcotest.(check int) "window count recorded" (Array.length windows) r.Server.windows

let test_server_pipelining () =
  with_server @@ fun srv idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  let w = Helpers.random_queries ~n:4 ~seed:5 in
  (* Three requests in one write: replies must come back in request
     order with ids echoed. *)
  let frames =
    Bytes.concat Bytes.empty
      [
        Wire.encode (Wire.Request (Wire.Query { id = 11; deadline_ms = 0; windows = w }));
        Wire.encode (Wire.Request (Wire.Health_check { id = 12 }));
        Wire.encode (Wire.Request (Wire.Query { id = 13; deadline_ms = 0; windows = w }));
      ]
  in
  send_raw c frames;
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 3);
  (match !out with
  | [ Wire.Reply (Wire.Results { id = a; _ }); Wire.Reply (Wire.Health_status { id = b; health });
      Wire.Reply (Wire.Results { id = d; _ }) ] ->
      Alcotest.(check (list int)) "reply order = request order" [ 11; 12; 13 ] [ a; b; d ];
      Alcotest.(check int) "health reports the committed generation"
        (Superblock.generation (Index_file.superblock idx))
        health.Wire.h_generation;
      Alcotest.(check bool) "not draining" false health.Wire.h_draining;
      Alcotest.(check int) "one live connection" 1 health.Wire.h_conns;
      Alcotest.(check bool) "breaker healthy" true (health.Wire.h_breaker = Wire.B_closed);
      Alcotest.(check bool) "no quota: infinite tokens" true
        (health.Wire.h_quota_tokens = Float.infinity)
  | _ -> Alcotest.fail "expected Results / Health_status / Results in order");
  let r = Server.report srv in
  Alcotest.(check int) "two queries served" 2 r.Server.served;
  Alcotest.(check int) "one health served" 1 r.Server.health_served

let test_server_too_large () =
  let config = { Server.default_config with Server.max_windows = 2 } in
  with_server ~config @@ fun srv _idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  send c (Wire.Query { id = 1; deadline_ms = 0; windows = Helpers.random_queries ~n:3 ~seed:1 });
  send c (Wire.Query { id = 2; deadline_ms = 0; windows = Helpers.random_queries ~n:2 ~seed:2 });
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 2);
  (match !out with
  | [ first; second ] ->
      let hint = expect_error "3 windows vs cap 2" Wire.E_too_large first in
      Alcotest.(check (float 0.0)) "retrying cannot help" 0.0 hint;
      (match second with
      | Wire.Reply (Wire.Results { id = 2; _ }) -> ()
      | _ -> Alcotest.fail "the connection must survive an E_too_large rejection")
  | _ -> Alcotest.fail "expected two replies");
  Alcotest.(check int) "too_large counted" 1 (Server.report srv).Server.too_large

(* A reply over the frame cap is refused before anything is written: a
   typed E_too_large naming both sizes, counted, and the connection
   stays usable.  The server runs on its own domain behind a Unix
   socket, so the blocking [Client] sees exactly what a remote client
   would. *)
let test_server_reply_cap () =
  let config = { Server.default_config with Server.max_payload = 4096 } in
  with_server ~config @@ fun srv _idx entries ->
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "prt_test_cap_%d.sock" (Unix.getpid ()))
  in
  Server.listen_unix srv path;
  let dom = Domain.spawn (fun () -> Server.run ~step_timeout:0.005 srv) in
  let client = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Server.request_drain srv;
      ignore (Domain.join dom);
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let everything = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1.0 ~ymax:1.0 in
  Alcotest.(check bool) "the big query matches at least 200 entries" true
    (List.length (Helpers.brute_force entries everything) >= 200);
  (match Client.query client [| everything |] with
  | Error (Client.Rejected { code = Wire.E_too_large; retry_after_ms; detail }) ->
      Alcotest.(check (float 0.0)) "retrying cannot help" 0.0 retry_after_ms;
      let size = 8 + 9 + (40 * List.length (Helpers.brute_force entries everything)) in
      let mentions n =
        let s = string_of_int n in
        let rec at i =
          i + String.length s <= String.length detail
          && (String.sub detail i (String.length s) = s || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) ("detail names both sizes: " ^ detail) true (mentions size && mentions 4096)
  | Error f -> Alcotest.failf "expected E_too_large, got %a" Client.pp_failure f
  | Ok _ -> Alcotest.fail "a reply over the frame cap must be refused");
  let small = (Helpers.random_queries ~n:1 ~seed:14).(0) in
  (match Client.query client [| small |] with
  | Ok [| r |] ->
      Alcotest.(check (list int))
        "the connection still answers" (Helpers.brute_force entries small)
        (Helpers.ids_of r.Wire.qr_hits)
  | Ok _ -> Alcotest.fail "expected one result"
  | Error f -> Alcotest.failf "small query after E_too_large: %a" Client.pp_failure f);
  let r = Server.report srv in
  Alcotest.(check int) "too_large counted" 1 r.Server.too_large;
  Alcotest.(check int) "only the small query served" 1 r.Server.served;
  Alcotest.(check int) "no connection lost" 0 r.Server.io_closed

let test_server_quota () =
  Deadline.install_virtual ();
  Fun.protect ~finally:Deadline.uninstall_virtual @@ fun () ->
  let config =
    { Server.default_config with Server.quota_rate = 1000.0; quota_burst = 2.0 }
  in
  with_server ~config @@ fun srv _idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  let w = Helpers.random_queries ~n:2 ~seed:3 in
  send c (Wire.Query { id = 1; deadline_ms = 0; windows = w });
  send c (Wire.Query { id = 2; deadline_ms = 0; windows = w });
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 2);
  (match !out with
  | [ Wire.Reply (Wire.Results { id = 1; _ }); second ] ->
      let hint = expect_error "empty bucket" Wire.E_quota second in
      (* Frozen virtual clock, 2 tokens short at 1000/s: the hint is
         exactly 2ms. *)
      Alcotest.(check (float 1e-6)) "exact refill hint" 2.0 hint
  | _ -> Alcotest.fail "expected Results then E_quota");
  Alcotest.(check int) "quota shed counted" 1 (Server.report srv).Server.shed_quota;
  (* The bucket refills on the virtual clock: 10ms buys 10 tokens
     (capped at burst 2), so the retry is admitted. *)
  Deadline.advance_ms 10.0;
  send c (Wire.Query { id = 3; deadline_ms = 0; windows = w });
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 3);
  match List.nth !out 2 with
  | Wire.Reply (Wire.Results { id = 3; _ }) -> ()
  | _ -> Alcotest.fail "refilled bucket must admit the retry"

let test_server_overload () =
  let config = { Server.default_config with Server.max_in_flight = 1 } in
  with_server ~config @@ fun srv _idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  send c (Wire.Query { id = 1; deadline_ms = 0; windows = Helpers.random_queries ~n:2 ~seed:4 });
  send c (Wire.Query { id = 2; deadline_ms = 0; windows = Helpers.random_queries ~n:1 ~seed:5 });
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 2);
  (match !out with
  | [ first; second ] ->
      let hint = expect_error "batch wider than max_in_flight" Wire.E_overloaded first in
      Alcotest.(check (float 1e-9)) "overload hint" Server.default_config.Server.overload_retry_ms
        hint;
      (match second with
      | Wire.Reply (Wire.Results { id = 2; _ }) -> ()
      | _ -> Alcotest.fail "a batch within the admission cap must run")
  | _ -> Alcotest.fail "expected two replies");
  Alcotest.(check int) "overload shed counted" 1 (Server.report srv).Server.shed_overload

let test_server_queue_shed () =
  let config = { Server.default_config with Server.max_queue = 1 } in
  with_server ~config @@ fun srv _idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  let w = Helpers.random_queries ~n:1 ~seed:6 in
  let frames =
    Bytes.concat Bytes.empty
      (List.map
         (fun id -> Wire.encode (Wire.Request (Wire.Query { id; deadline_ms = 0; windows = w })))
         [ 1; 2; 3 ])
  in
  send_raw c frames;
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 3);
  (* Newest-first shedding: the first request fills the queue and runs;
     the pipelined flood behind it is rejected with a retry hint. *)
  let by_id id = List.find (fun m -> Wire.msg_id m = id) !out in
  (match by_id 1 with
  | Wire.Reply (Wire.Results _) -> ()
  | _ -> Alcotest.fail "the queued request must still be served");
  ignore (expect_error "queue full (id 2)" Wire.E_overloaded (by_id 2));
  ignore (expect_error "queue full (id 3)" Wire.E_overloaded (by_id 3));
  Alcotest.(check int) "both floods shed" 2 (Server.report srv).Server.shed_overload

(* Deadline-in-queue shedding, deterministically: the chaos policy
   charges 10 virtual ms per read, so by the time the first
   connection's 5ms-deadline query is popped from the queue (after the
   second connection's read), its budget is already spent. *)
let test_server_deadline_shed () =
  Deadline.install_virtual ();
  Fun.protect ~finally:Deadline.uninstall_virtual @@ fun () ->
  let chaos = Failpoint.create (Failpoint.slow ~read_ms:10.0 ()) in
  with_server ~chaos @@ fun srv _idx _entries ->
  (* Injection order is adoption order, and reads scan conns
     newest-adopted first: c1 (injected second) is read before c2. *)
  let c2 = connect srv in
  let c1 = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c1; close_cend c2) @@ fun () ->
  send c1 (Wire.Query { id = 1; deadline_ms = 5; windows = Helpers.random_queries ~n:1 ~seed:7 });
  send c2 (Wire.Health_check { id = 2 });
  let out1 = ref [] and out2 = ref [] in
  step_until srv [ (c1, out1); (c2, out2) ] (fun () ->
      List.length !out1 >= 1 && List.length !out2 >= 1);
  let hint = expect_error "expired while queued" Wire.E_deadline (List.hd !out1) in
  Alcotest.(check (float 0.0)) "no retry hint on deadline" 0.0 hint;
  (match List.hd !out2 with
  | Wire.Reply (Wire.Health_status _) -> ()
  | _ -> Alcotest.fail "the other connection is unaffected");
  let r = Server.report srv in
  Alcotest.(check int) "deadline shed counted" 1 r.Server.shed_deadline;
  Alcotest.(check int) "nothing executed late" 0 r.Server.served

let test_server_drain () =
  with_server @@ fun srv _idx entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  let w = Helpers.random_queries ~n:2 ~seed:8 in
  (* Query, drain, query — pipelined in one write.  The pre-drain query
     completes, the drain gets its health snapshot, the post-drain query
     is a typed E_draining, then the server shuts down by itself. *)
  let frames =
    Bytes.concat Bytes.empty
      [
        Wire.encode (Wire.Request (Wire.Query { id = 1; deadline_ms = 0; windows = w }));
        Wire.encode (Wire.Request (Wire.Drain { id = 2 }));
        Wire.encode (Wire.Request (Wire.Query { id = 3; deadline_ms = 0; windows = w }));
      ]
  in
  send_raw c frames;
  let out = ref [] in
  let finished = ref false in
  let steps = ref 0 in
  while (not !finished) && !steps < 500 do
    incr steps;
    if not (Server.step srv ~timeout:0.0) then finished := true;
    poll c out
  done;
  Alcotest.(check bool) "drain completes on its own" true !finished;
  (match !out with
  | [ Wire.Reply (Wire.Results { id = 1; results }); Wire.Reply (Wire.Health_status { id = 2; health });
      third ] ->
      Alcotest.(check int) "in-flight request ran to completion" (Array.length w)
        (Array.length results);
      Array.iteri
        (fun i window ->
          Alcotest.(check (list int))
            "pre-drain results are correct" (Helpers.brute_force entries window)
            (Helpers.ids_of results.(i).Wire.qr_hits))
        w;
      Alcotest.(check bool) "drain ack reports draining" true health.Wire.h_draining;
      let hint = expect_error "post-drain query" Wire.E_draining third in
      Alcotest.(check bool) "finite drain retry hint" true
        (Float.is_finite hint && hint >= 0.0)
  | l -> Alcotest.failf "expected 3 replies, got %d" (List.length l));
  poll c out;
  Alcotest.(check bool) "server closed the connection" true c.eof;
  let r = Server.report srv in
  Alcotest.(check int) "draining shed counted" 1 r.Server.shed_draining;
  Alcotest.(check int) "no forced closes on an idle drain" 0 r.Server.drain_forced

let test_server_malformed () =
  with_server @@ fun srv _idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  let bad = Wire.encode (Wire.Request (Wire.Health_check { id = 5 })) in
  Bytes.set bad 9 (Char.chr (Char.code (Bytes.get bad 9) lxor 1));
  send_raw c bad;
  let out = ref [] in
  step_until srv [ (c, out) ] (fun () -> List.length !out >= 1 && c.eof);
  let hint = expect_error "corrupt frame" Wire.E_malformed (List.hd !out) in
  Alcotest.(check (float 0.0)) "malformed: no retry hint" 0.0 hint;
  let r = Server.report srv in
  Alcotest.(check int) "malformed counted" 1 r.Server.malformed;
  Alcotest.(check int) "connection closed" 1 r.Server.closed

let test_server_midframe_disconnect () =
  with_server @@ fun srv _idx entries ->
  let c = connect srv in
  let frame =
    Wire.encode
      (Wire.Request (Wire.Query { id = 1; deadline_ms = 0; windows = [| sample_rect |] }))
  in
  send_raw c (Bytes.sub frame 0 10);
  ignore (Server.step srv ~timeout:0.0);
  close_cend c;
  step_until srv [] (fun () -> (Server.report srv).Server.closed >= 1);
  let r = Server.report srv in
  Alcotest.(check int) "a vanished peer is not a malformed frame" 0 r.Server.malformed;
  Alcotest.(check int) "nothing served from half a frame" 0 r.Server.served;
  (* The server survives: a fresh connection still gets answers. *)
  let c2 = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c2) @@ fun () ->
  let w = Helpers.random_queries ~n:1 ~seed:9 in
  send c2 (Wire.Query { id = 2; deadline_ms = 0; windows = w });
  let out = ref [] in
  step_until srv [ (c2, out) ] (fun () -> List.length !out >= 1);
  match List.hd !out with
  | Wire.Reply (Wire.Results { id = 2; results }) ->
      Alcotest.(check (list int))
        "post-disconnect queries are correct" (Helpers.brute_force entries w.(0))
        (Helpers.ids_of results.(0).Wire.qr_hits)
  | _ -> Alcotest.fail "expected results on the fresh connection"

(* A permanently stalled client (every write injected to accept zero
   bytes, 30 virtual ms charged per attempt) must be cut by the
   write timeout instead of pinning its reply buffers forever. *)
let test_server_slow_client () =
  Deadline.install_virtual ();
  Fun.protect ~finally:Deadline.uninstall_virtual @@ fun () ->
  let chaos =
    Failpoint.create
      { Failpoint.default with write_error = 1.0; max_consecutive = 1_000_000; write_delay_ms = 30.0 }
  in
  let config = { Server.default_config with Server.write_timeout_ms = 50.0 } in
  with_server ~chaos ~config @@ fun srv _idx _entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  send c (Wire.Query { id = 1; deadline_ms = 0; windows = Helpers.random_queries ~n:1 ~seed:10 });
  step_until srv [] (fun () -> (Server.report srv).Server.slow_closed >= 1);
  let r = Server.report srv in
  Alcotest.(check int) "slow client closed" 1 r.Server.slow_closed;
  Alcotest.(check int) "the query itself was served" 1 r.Server.served

(* An armed kill-point crash fires on the first reply write: the
   simulated process death propagates out of [step], and the index —
   queries run on per-batch pins — is left with nothing pinned and
   nothing corrupted. *)
let test_server_kill_point () =
  let chaos = Failpoint.create (Failpoint.crash_after 0) in
  with_server ~chaos @@ fun srv idx entries ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> close_cend c) @@ fun () ->
  send c (Wire.Query { id = 1; deadline_ms = 0; windows = Helpers.random_queries ~n:2 ~seed:12 });
  let crashed = ref false in
  (try
     for _ = 1 to 20 do
       ignore (Server.step srv ~timeout:0.0)
     done
   with Failpoint.Simulated_crash _ -> crashed := true);
  Alcotest.(check bool) "kill point fired" true !crashed;
  (* The crash modelled process death mid-reply: the index is untouched
     and immediately queryable. *)
  let w = (Helpers.random_queries ~n:1 ~seed:13).(0) in
  Helpers.check_query_matches_brute_force (Index_file.tree idx) entries w

(* A compact chaos property: under random socket faults (resets, short
   reads, stalled and torn writes) the server never raises, and a
   subsequent drain always terminates with nothing pinned.  The full
   matrix lives in serve_smoke.ml. *)
let qcheck_server_chaos =
  QCheck.Test.make
    ~name:"serve: random socket faults never escape a connection"
    ~count:(if Helpers.long_run then 25 else 6)
    (Helpers.arbitrary_scenario ~min_size:1 ~max_size:8 ())
    (fun sc ->
      let chaos = Helpers.fault_schedule ~seed:sc.Helpers.sc_seed ~rate:0.25 () in
      with_server ~chaos ~n:120 @@ fun srv _idx _entries ->
      let conns = List.init 2 (fun _ -> connect srv) in
      let windows = Helpers.random_queries ~n:4 ~seed:sc.Helpers.sc_seed in
      for i = 0 to sc.Helpers.sc_size - 1 do
        let c = List.nth conns (i mod 2) in
        send c (Wire.Query { id = i + 1; deadline_ms = 0; windows })
      done;
      for _ = 1 to 50 do
        ignore (Server.step srv ~timeout:0.0)
      done;
      List.iter close_cend conns;
      Server.request_drain srv;
      let steps = ref 0 in
      while Server.step srv ~timeout:0.0 && !steps < 500 do
        incr steps
      done;
      let r = Server.report srv in
      !steps < 500 && r.Server.closed >= r.Server.accepted)

let suite =
  [
    Alcotest.test_case "wire: representative messages round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: golden frames, one per message kind" `Quick test_wire_golden;
    Helpers.qcheck_case qcheck_results_writer;
    Helpers.qcheck_case qcheck_wire_roundtrip;
    Helpers.qcheck_case qcheck_wire_corruption;
    Alcotest.test_case "wire: adversarial frames yield typed errors" `Quick test_wire_adversarial;
    Alcotest.test_case "wire: reply hits are checked in wire order" `Quick test_wire_bad_hits;
    Alcotest.test_case "wire: a decoded hit allocates at most 12 words" `Quick test_wire_hit_words;
    Alcotest.test_case "wire: reader reassembles fragments, errors stick" `Quick test_wire_reader;
    Alcotest.test_case "quota: token bucket arithmetic" `Quick test_quota;
    Alcotest.test_case "retry: typed breaker health through its lifecycle" `Quick
      test_breaker_health;
    Alcotest.test_case "serve: queries match the oracle" `Quick test_server_query_oracle;
    Alcotest.test_case "serve: pipelined replies stay in order" `Quick test_server_pipelining;
    Alcotest.test_case "serve: window cap is a typed rejection" `Quick test_server_too_large;
    Alcotest.test_case "serve: reply over the frame cap is a typed rejection" `Quick
      test_server_reply_cap;
    Alcotest.test_case "serve: quota rejections carry exact hints" `Quick test_server_quota;
    Alcotest.test_case "serve: admission control sheds with a hint" `Quick test_server_overload;
    Alcotest.test_case "serve: full queue sheds newest first" `Quick test_server_queue_shed;
    Alcotest.test_case "serve: queued deadlines expire before execution" `Quick
      test_server_deadline_shed;
    Alcotest.test_case "serve: graceful drain finishes in-flight work" `Quick test_server_drain;
    Alcotest.test_case "serve: malformed frames earn a reply then a close" `Quick
      test_server_malformed;
    Alcotest.test_case "serve: mid-frame disconnects are contained" `Quick
      test_server_midframe_disconnect;
    Alcotest.test_case "serve: stalled clients are cut by the write timeout" `Quick
      test_server_slow_client;
    Alcotest.test_case "serve: kill-point crash leaks no pins" `Quick test_server_kill_point;
    Helpers.qcheck_case qcheck_server_chaos;
  ]
