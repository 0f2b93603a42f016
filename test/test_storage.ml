(* Storage tests: page codecs, the counted pager (memory and file
   backends), LRU eviction order, and buffer pool write-back. *)

module Page = Prt_storage.Page
module Pager = Prt_storage.Pager
module Lru = Prt_storage.Lru
module Buffer_pool = Prt_storage.Buffer_pool

(* --- Page codec --- *)

let test_page_f64_roundtrip () =
  let p = Page.create 64 in
  List.iteri
    (fun i v ->
      Page.set_f64 p (i * 8) v;
      Alcotest.(check (float 0.0)) "roundtrip" v (Page.get_f64 p (i * 8)))
    [ 0.0; -1.5; 3.14159; infinity; neg_infinity; 1e-300; Float.max_float ]

let test_page_nan_roundtrip () =
  let p = Page.create 16 in
  Page.set_f64 p 0 Float.nan;
  Alcotest.(check bool) "nan" true (Float.is_nan (Page.get_f64 p 0))

let test_page_i32_roundtrip () =
  let p = Page.create 16 in
  List.iter
    (fun v ->
      Page.set_i32 p 4 v;
      Alcotest.(check int) "roundtrip" v (Page.get_i32 p 4))
    [ 0; 1; -1; 123456789; Int32.to_int Int32.max_int; Int32.to_int Int32.min_int ]

let test_page_i32_overflow () =
  let p = Page.create 16 in
  Alcotest.(check bool) "raises" true
    (try
       Page.set_i32 p 0 (Int32.to_int Int32.max_int + 1);
       false
     with Invalid_argument _ -> true)

let test_page_u16_u8 () =
  let p = Page.create 16 in
  Page.set_u16 p 0 65535;
  Alcotest.(check int) "u16" 65535 (Page.get_u16 p 0);
  Page.set_u8 p 2 255;
  Alcotest.(check int) "u8" 255 (Page.get_u8 p 2);
  Alcotest.(check bool) "u16 overflow" true
    (try
       Page.set_u16 p 0 65536;
       false
     with Invalid_argument _ -> true)

(* --- Pager (memory backend) --- *)

let test_pager_roundtrip () =
  let pager = Pager.create_memory ~page_size:128 () in
  let a = Pager.alloc pager and b = Pager.alloc pager in
  let pa = Bytes.make 128 'a' and pb = Bytes.make 128 'b' in
  Pager.write pager a pa;
  Pager.write pager b pb;
  Alcotest.(check bytes) "a" pa (Pager.read pager a);
  Alcotest.(check bytes) "b" pb (Pager.read pager b);
  Alcotest.(check int) "pages" 2 (Pager.num_pages pager)

let test_pager_counters () =
  let pager = Pager.create_memory ~page_size:64 () in
  let id = Pager.alloc pager in
  let before = Pager.snapshot pager in
  Pager.write pager id (Bytes.make 64 'x');
  ignore (Pager.read pager id);
  ignore (Pager.read pager id);
  let d = Pager.diff ~before ~after:(Pager.snapshot pager) in
  Alcotest.(check int) "reads" 2 d.Pager.s_reads;
  Alcotest.(check int) "writes" 1 d.Pager.s_writes;
  Alcotest.(check int) "total" 3 (Pager.total_io d)

let test_pager_free_reuse () =
  let pager = Pager.create_memory ~page_size:64 () in
  let a = Pager.alloc pager in
  let _b = Pager.alloc pager in
  Pager.free pager a;
  Alcotest.(check int) "freed page is reused" a (Pager.alloc pager);
  Alcotest.(check int) "no growth" 2 (Pager.num_pages pager)

let test_pager_double_free () =
  let pager = Pager.create_memory ~page_size:64 () in
  let a = Pager.alloc pager in
  Pager.free pager a;
  Alcotest.(check bool) "double free raises" true
    (try
       Pager.free pager a;
       false
     with Invalid_argument _ -> true)

let test_pager_bad_id () =
  let pager = Pager.create_memory ~page_size:64 () in
  Alcotest.(check bool) "read out of range" true
    (try
       ignore (Pager.read pager 3);
       false
     with Invalid_argument _ -> true)

let test_pager_size_mismatch () =
  let pager = Pager.create_memory ~page_size:64 () in
  let id = Pager.alloc pager in
  Alcotest.(check bool) "short buffer raises" true
    (try
       Pager.write pager id (Bytes.make 63 'x');
       false
     with Invalid_argument _ -> true)

(* --- Pager (file backend) --- *)

let with_temp_file f =
  let path = Filename.temp_file "prt_test" ".pages" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_pager_file_roundtrip () =
  with_temp_file (fun path ->
      let pager = Pager.create_file ~page_size:128 path in
      let a = Pager.alloc pager and b = Pager.alloc pager in
      let pa = Bytes.make 128 'a' and pb = Bytes.make 128 'b' in
      Pager.write pager a pa;
      Pager.write pager b pb;
      Alcotest.(check bytes) "b" pb (Pager.read pager b);
      Pager.close pager;
      (* Reopen and read back. *)
      let pager = Pager.open_file ~page_size:128 path in
      Alcotest.(check int) "pages persisted" 2 (Pager.num_pages pager);
      Alcotest.(check bytes) "a persisted" pa (Pager.read pager a);
      Pager.close pager)

let test_pager_closed () =
  with_temp_file (fun path ->
      let pager = Pager.create_file ~page_size:64 path in
      let id = Pager.alloc pager in
      Pager.close pager;
      Alcotest.(check bool) "use after close raises" true
        (try
           ignore (Pager.read pager id);
           false
         with Invalid_argument _ -> true))

(* --- LRU --- *)

let test_lru_eviction_order () =
  let lru = Lru.create 2 in
  Alcotest.(check (option (pair int string))) "no evict" None (Lru.add lru 1 "a");
  Alcotest.(check (option (pair int string))) "no evict" None (Lru.add lru 2 "b");
  (* Touch 1 so that 2 is the least recently used. *)
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find lru 1);
  Alcotest.(check (option (pair int string))) "evicts 2" (Some (2, "b")) (Lru.add lru 3 "c");
  Alcotest.(check (option string)) "2 gone" None (Lru.find lru 2);
  Alcotest.(check int) "length" 2 (Lru.length lru)

let test_lru_update_existing () =
  let lru = Lru.create 2 in
  ignore (Lru.add lru 1 "a");
  ignore (Lru.add lru 1 "a2");
  Alcotest.(check int) "no duplicate" 1 (Lru.length lru);
  Alcotest.(check (option string)) "updated" (Some "a2") (Lru.find lru 1)

let test_lru_remove () =
  let lru = Lru.create 3 in
  ignore (Lru.add lru 1 "a");
  Alcotest.(check (option string)) "removed value" (Some "a") (Lru.remove lru 1);
  Alcotest.(check (option string)) "gone" None (Lru.find lru 1);
  Alcotest.(check (option string)) "remove missing" None (Lru.remove lru 9)

let test_lru_capacity_one () =
  let lru = Lru.create 1 in
  ignore (Lru.add lru 1 "a");
  Alcotest.(check (option (pair int string))) "evicts previous" (Some (1, "a")) (Lru.add lru 2 "b");
  Alcotest.(check (option string)) "kept" (Some "b") (Lru.find lru 2)

let test_lru_stress_against_model () =
  (* Random ops against a naive list model. *)
  let rng = Prt_util.Rng.create 1234 in
  let lru = Lru.create 8 in
  let model = ref [] in (* most recent first, max 8 *)
  for _ = 1 to 2000 do
    let key = Prt_util.Rng.int rng 20 in
    if Prt_util.Rng.bool rng then begin
      (* add *)
      ignore (Lru.add lru key key);
      model := (key, key) :: List.remove_assoc key !model;
      if List.length !model > 8 then
        model := List.filteri (fun i _ -> i < 8) !model
    end
    else begin
      let expected = List.assoc_opt key !model in
      let got = Lru.find lru key in
      Alcotest.(check (option int)) "model agrees" expected got;
      (* find touches recency in both *)
      match expected with
      | Some v -> model := (key, v) :: List.remove_assoc key !model
      | None -> ()
    end
  done

(* --- Buffer pool --- *)

let test_pool_read_through () =
  let pager = Pager.create_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:4 pager in
  let id = Pager.alloc pager in
  Pager.write pager id (Bytes.make 64 'z');
  Pager.reset_stats pager;
  let _ = Buffer_pool.read pool id in
  let _ = Buffer_pool.read pool id in
  let _ = Buffer_pool.read pool id in
  Alcotest.(check int) "one physical read" 1 (Pager.stats pager).Pager.reads;
  Alcotest.(check int) "hits" 2 (Buffer_pool.hits pool);
  Alcotest.(check int) "misses" 1 (Buffer_pool.misses pool)

(* Pages come back with the integrity trailer stamped by the storage
   layer; only the payload prefix carries caller data. *)
let payload buf = Bytes.sub buf 0 (Page.payload_size (Bytes.length buf))

let test_pool_write_back_on_evict () =
  let pager = Pager.create_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:1 pager in
  let a = Buffer_pool.alloc pool and b = Buffer_pool.alloc pool in
  Buffer_pool.write pool a (Bytes.make 64 'a');
  (* Writing b evicts a, which must be flushed to the pager. *)
  Buffer_pool.write pool b (Bytes.make 64 'b');
  Alcotest.(check bytes) "a persisted on eviction"
    (payload (Bytes.make 64 'a'))
    (payload (Pager.read pager a))

let test_pool_flush () =
  let pager = Pager.create_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:8 pager in
  let a = Buffer_pool.alloc pool in
  Buffer_pool.write pool a (Bytes.make 64 'q');
  Alcotest.(check bytes) "not yet written" (Bytes.make 64 '\000') (Pager.read pager a);
  Buffer_pool.flush pool;
  Alcotest.(check bytes) "flushed" (payload (Bytes.make 64 'q')) (payload (Pager.read pager a))

let test_pool_read_after_write_cached () =
  let pager = Pager.create_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:8 pager in
  let a = Buffer_pool.alloc pool in
  Buffer_pool.write pool a (Bytes.make 64 'w');
  Alcotest.(check bytes) "cached read sees write" (Bytes.make 64 'w') (Buffer_pool.read pool a)

let test_pool_free_drops_cache () =
  let pager = Pager.create_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:8 pager in
  let a = Buffer_pool.alloc pool in
  Buffer_pool.write pool a (Bytes.make 64 'x');
  Buffer_pool.free pool a;
  let a2 = Buffer_pool.alloc pool in
  Alcotest.(check int) "page reused" a a2;
  (* The stale dirty page must not resurface. *)
  Alcotest.(check bytes) "fresh read from pager" (Pager.read pager a2) (Buffer_pool.read pool a2)

(* A cached read allocates nothing: not the LRU lookup, and not moving
   the page to the front of the recency list.  Measured on 100 reads of
   one page (each already the most recent) and on 100 reads cycling
   over three pages (each moved to the front), after a warm-up;
   [Gc.minor] before each reading keeps the counter exact. *)
let test_pool_cached_read_allocates_nothing () =
  let pool = Buffer_pool.create ~capacity:8 (Pager.create_memory ~page_size:64 ()) in
  let ids = Array.init 3 (fun _ -> Buffer_pool.alloc pool) in
  Array.iter (fun id -> Buffer_pool.write pool id (Bytes.make 64 'x')) ids;
  let words f =
    f ();
    Gc.minor ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor ();
    Gc.minor_words () -. w0
  in
  let one () =
    for _ = 1 to 100 do
      ignore (Buffer_pool.read pool ids.(0))
    done
  and cycle () =
    for k = 1 to 100 do
      ignore (Buffer_pool.read pool ids.(k mod 3))
    done
  in
  let hits = Buffer_pool.hits pool in
  Alcotest.(check (float 0.0)) "100 reads of one cached page" 0.0 (words one);
  Alcotest.(check (float 0.0)) "100 reads cycling over three cached pages" 0.0 (words cycle);
  Alcotest.(check int) "every read a hit" (hits + 400) (Buffer_pool.hits pool)

(* A write hands the pool its buffer: a page the pool does not hold is
   cached as that buffer, not as a 4 KB copy, which (513 words) would
   go straight into the major heap.  Measured as words allocated in the
   major heap directly (major minus promoted) over 100 writes of fresh
   pages into a pool that holds them all; [Gc.minor] before each
   reading keeps the counters exact. *)
let test_pool_write_keeps_page () =
  let pool = Buffer_pool.create ~capacity:128 (Pager.create_memory ~page_size:4096 ()) in
  let ids = Array.init 100 (fun _ -> Buffer_pool.alloc pool) in
  let pages = Array.init 100 (fun i -> Bytes.make 4096 (Char.chr (i land 0xFF))) in
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  Array.iteri (fun i id -> Buffer_pool.write pool id pages.(i)) ids;
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  let words = major1 -. major0 -. (promoted1 -. promoted0) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words for 100 page writes (fewer than 1,000)" words)
    true (words < 1_000.0);
  Array.iteri
    (fun i id ->
      Alcotest.(check bool) "reads back as the buffer written" true
        (Buffer_pool.read pool id == pages.(i)))
    ids

(* Extending a file by a page writes zeros from one shared buffer:
   a fresh 4 KB buffer per page (513 words) would go straight into the
   major heap.  The pages still read back as zeros. *)
let test_pager_alloc_allocates_no_page () =
  with_temp_file (fun path ->
      let pager = Pager.create_file ~page_size:4096 path in
      ignore (Pager.alloc pager);
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      let ids = Array.init 100 (fun _ -> Pager.alloc pager) in
      Gc.minor ();
      let _, _, major1 = Gc.counters () in
      let words = major1 -. major0 in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f major words for 100 page allocations (fewer than 1,000)" words)
        true (words < 1_000.0);
      Alcotest.(check int) "allocations counted" 101 (Pager.snapshot pager).Pager.s_allocs;
      Alcotest.(check bytes) "a fresh page reads as zeros" (Bytes.make 4096 '\000')
        (Bytes.sub (Pager.read pager ids.(99)) 0 4096);
      Pager.close pager)

let suite =
  [
    Alcotest.test_case "page: f64 roundtrip" `Quick test_page_f64_roundtrip;
    Alcotest.test_case "page: nan roundtrip" `Quick test_page_nan_roundtrip;
    Alcotest.test_case "page: i32 roundtrip" `Quick test_page_i32_roundtrip;
    Alcotest.test_case "page: i32 overflow" `Quick test_page_i32_overflow;
    Alcotest.test_case "page: u16/u8" `Quick test_page_u16_u8;
    Alcotest.test_case "pager: roundtrip" `Quick test_pager_roundtrip;
    Alcotest.test_case "pager: counters" `Quick test_pager_counters;
    Alcotest.test_case "pager: free and reuse" `Quick test_pager_free_reuse;
    Alcotest.test_case "pager: double free" `Quick test_pager_double_free;
    Alcotest.test_case "pager: bad id" `Quick test_pager_bad_id;
    Alcotest.test_case "pager: size mismatch" `Quick test_pager_size_mismatch;
    Alcotest.test_case "pager: file backend" `Quick test_pager_file_roundtrip;
    Alcotest.test_case "pager: closed" `Quick test_pager_closed;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru: update existing" `Quick test_lru_update_existing;
    Alcotest.test_case "lru: remove" `Quick test_lru_remove;
    Alcotest.test_case "lru: capacity one" `Quick test_lru_capacity_one;
    Alcotest.test_case "lru: stress vs model" `Quick test_lru_stress_against_model;
    Alcotest.test_case "pool: read-through caching" `Quick test_pool_read_through;
    Alcotest.test_case "pool: write-back on evict" `Quick test_pool_write_back_on_evict;
    Alcotest.test_case "pool: flush" `Quick test_pool_flush;
    Alcotest.test_case "pool: read after write" `Quick test_pool_read_after_write_cached;
    Alcotest.test_case "pool: free drops cache" `Quick test_pool_free_drops_cache;
    Alcotest.test_case "pool: a cached read allocates nothing" `Quick
      test_pool_cached_read_allocates_nothing;
    Alcotest.test_case "pager: a page allocation allocates no page" `Quick
      test_pager_alloc_allocates_no_page;
    Alcotest.test_case "pool: a written page is kept, not copied" `Quick
      test_pool_write_keeps_page;
  ]
