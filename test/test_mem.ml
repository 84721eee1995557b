open Riq_mem

(* ---- Store ---- *)

let test_store_rw () =
  let s = Store.create () in
  Alcotest.(check int) "default zero" 0 (Store.read_word s 0x1000);
  Store.write_word s 0x1000 42;
  Alcotest.(check int) "read back" 42 (Store.read_word s 0x1000);
  Store.write_word s 0x1000 0xDEADBEEF;
  Alcotest.(check int) "overwrite" 0xDEADBEEF (Store.read_word s 0x1000);
  (* cross-page addresses are independent *)
  Store.write_word s 0x3FFC 1;
  Store.write_word s 0x4000 2;
  Alcotest.(check int) "page end" 1 (Store.read_word s 0x3FFC);
  Alcotest.(check int) "page start" 2 (Store.read_word s 0x4000)

let test_store_errors () =
  let s = Store.create () in
  Alcotest.(check bool) "misaligned" true
    (try
       ignore (Store.read_word s 0x1001);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative" true
    (try
       Store.write_word s (-4) 0;
       false
     with Invalid_argument _ -> true)

let test_store_float () =
  let s = Store.create () in
  Store.write_float s 0x100 3.14159;
  (* single-precision round-trip *)
  Alcotest.(check (float 0.))
    "single round-trip"
    (Int32.float_of_bits (Int32.bits_of_float 3.14159))
    (Store.read_float s 0x100)

let test_store_copy_equal () =
  let s = Store.create () in
  Store.write_word s 0 1;
  Store.write_word s 0x8000 2;
  let c = Store.copy s in
  Alcotest.(check bool) "copies equal" true (Store.equal s c);
  Store.write_word c 0x8000 3;
  Alcotest.(check bool) "diverge" false (Store.equal s c);
  Alcotest.(check int) "original intact" 2 (Store.read_word s 0x8000)

let test_store_fold () =
  let s = Store.create () in
  Store.write_word s 0x2000 5;
  Store.write_word s 0x1000 4;
  let acc = Store.fold_nonzero s ~init:[] ~f:(fun acc addr v -> (addr, v) :: acc) in
  Alcotest.(check (list (pair int int))) "ascending" [ (0x1000, 4); (0x2000, 5) ] (List.rev acc)

let test_store_subword () =
  let s = Store.create () in
  Store.write_word s 0x100 0x11223344;
  Alcotest.(check int) "byte 0 (little-endian)" 0x44 (Store.read_byte s 0x100);
  Alcotest.(check int) "byte 3" 0x11 (Store.read_byte s 0x103);
  Alcotest.(check int) "half 0" 0x3344 (Store.read_half s 0x100);
  Alcotest.(check int) "half 2" 0x1122 (Store.read_half s 0x102);
  Store.write_byte s 0x101 0xAB;
  Alcotest.(check int) "byte write merges" 0x1122AB44 (Store.read_word s 0x100);
  Store.write_half s 0x102 0xCDEF;
  Alcotest.(check int) "half write merges" 0xCDEFAB44 (Store.read_word s 0x100);
  Alcotest.(check bool) "misaligned half" true
    (try
       ignore (Store.read_half s 0x101);
       false
     with Invalid_argument _ -> true)

(* ---- Cache ---- *)

let mk ?(sets = 4) ?(ways = 2) ?(line = 16) ?(lat = 1) () =
  Cache.create (Cache.config ~name:"t" ~sets ~ways ~line_bytes:line ~hit_latency:lat)

let test_cache_hit_miss () =
  let c = mk () in
  (match Cache.access c ~addr:0x100 ~write:false with
  | Cache.Miss -> ()
  | Hit | Miss_dirty -> Alcotest.fail "cold access must miss cleanly");
  (match Cache.access c ~addr:0x104 ~write:false with
  | Cache.Hit -> ()
  | Miss | Miss_dirty -> Alcotest.fail "same line must hit");
  Alcotest.(check int) "accesses" 2 (Cache.accesses c);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_lru () =
  (* 1 set, 2 ways, 16-byte lines: address k*16 maps to the single set. *)
  let c = mk ~sets:1 ~ways:2 () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:16 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false); (* refresh line 0 *)
  ignore (Cache.access c ~addr:32 ~write:false); (* evicts line 16 *)
  Alcotest.(check bool) "line 0 survives" true (Cache.probe c ~addr:0);
  Alcotest.(check bool) "line 16 evicted" false (Cache.probe c ~addr:16);
  Alcotest.(check bool) "line 32 present" true (Cache.probe c ~addr:32)

let test_cache_dirty_eviction () =
  let c = mk ~sets:1 ~ways:1 () in
  ignore (Cache.access c ~addr:0 ~write:true);
  (match Cache.access c ~addr:16 ~write:false with
  | Cache.Miss_dirty -> ()
  | Miss -> Alcotest.fail "expected dirty eviction"
  | Hit -> Alcotest.fail "expected miss");
  Alcotest.(check int) "dirty evictions" 1 (Cache.dirty_evictions c)

let test_cache_flush () =
  let c = mk () in
  ignore (Cache.access c ~addr:0 ~write:true);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.probe c ~addr:0)

let test_cache_config_validation () =
  Alcotest.(check bool) "non-pow2 sets" true
    (try
       ignore (Cache.config ~name:"x" ~sets:3 ~ways:1 ~line_bytes:16 ~hit_latency:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "size" 32768
    (Cache.size_bytes (Cache.config ~name:"x" ~sets:512 ~ways:2 ~line_bytes:32 ~hit_latency:1))

(* Wrong-path address arithmetic produces negative addresses, which the
   index computation must route through the division fallback ([lsr] on a
   negative int would index a wild line). The fallback truncates toward
   zero, so bytes -15..15 share line index 0 with 16-byte lines; distinct
   negative lines must still be distinct and stably cacheable. *)
let test_cache_negative_addr_fallback () =
  let c = mk ~sets:4 ~ways:2 ~line:16 () in
  Alcotest.(check int) "toward-zero: -1 shares line 0" 0
    (Cache.line_index c ~addr:(-1));
  Alcotest.(check int) "toward-zero: -15 shares line 0" 0
    (Cache.line_index c ~addr:(-15));
  Alcotest.(check int) "-16 is line -1" (-1) (Cache.line_index c ~addr:(-16));
  Alcotest.(check int) "-32 is line -2" (-2) (Cache.line_index c ~addr:(-32));
  (match Cache.access c ~addr:(-64) ~write:false with
  | Cache.Miss | Miss_dirty -> ()
  | Hit -> Alcotest.fail "cold negative access must miss");
  (match Cache.access c ~addr:(-64) ~write:false with
  | Cache.Hit -> ()
  | Miss | Miss_dirty -> Alcotest.fail "negative line must be cacheable");
  (match Cache.access c ~addr:(-52) ~write:false with
  | Cache.Miss | Miss_dirty -> ()
  | Hit -> Alcotest.fail "-52 (line -3) must not alias -64 (line -4)");
  Alcotest.(check bool) "negative line probes back" true
    (Cache.probe c ~addr:(-64));
  (* The shared line 0: a negative access warms it for positive peers. *)
  ignore (Cache.access c ~addr:(-3) ~write:false);
  (match Cache.access c ~addr:8 ~write:false with
  | Cache.Hit -> ()
  | Miss | Miss_dirty -> Alcotest.fail "-3 and 8 both live on line 0")

(* qcheck: the cache hit/miss sequence matches a naive model with the same
   geometry (per-set LRU lists). *)
let naive_model ~sets ~ways ~line =
  let table = Array.make sets [] in
  fun addr ->
    let lineno = addr / line in
    let set = lineno mod sets in
    let tag = lineno / sets in
    let l = table.(set) in
    let hit = List.mem tag l in
    let l = tag :: List.filter (fun t -> t <> tag) l in
    let l = if List.length l > ways then List.filteri (fun i _ -> i < ways) l else l in
    table.(set) <- l;
    hit

let prop_cache_vs_model =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:200
    QCheck.(list_of_size Gen.(int_range 50 200) (int_bound 1023))
    (fun addrs ->
      let c = mk ~sets:4 ~ways:2 ~line:16 () in
      let m = naive_model ~sets:4 ~ways:2 ~line:16 in
      List.for_all
        (fun a ->
          let addr = a * 4 in
          let hw =
            match Cache.access c ~addr ~write:false with
            | Cache.Hit -> true
            | Miss | Miss_dirty -> false
          in
          hw = m addr)
        addrs)

(* ---- Hierarchy ---- *)

let test_hierarchy_latencies () =
  let h = Hierarchy.create Hierarchy.baseline in
  (* Cold access: ITLB miss + L1 miss + L2 miss + DRAM. *)
  let cold = Hierarchy.fetch_at h ~now:0 ~addr:0x1000 in
  Alcotest.(check bool) "cold is slow" true (cold > 80);
  (* Once the fill has completed, the same line is a plain L1 hit. *)
  let warm = Hierarchy.fetch_at h ~now:(cold + 1) ~addr:0x1000 in
  Alcotest.(check int) "warm is L1 hit" 1 warm;
  let d1 = Hierarchy.data_at h ~now:0 ~addr:0x10000 ~write:false in
  Alcotest.(check bool) "cold data" true (d1 > 80);
  let d2 = Hierarchy.data_at h ~now:(d1 + 1) ~addr:0x10000 ~write:false in
  Alcotest.(check int) "warm data" 1 d2

let test_hierarchy_write_buffer () =
  let h = Hierarchy.create Hierarchy.baseline in
  ignore (Hierarchy.data_at h ~now:0 ~addr:0x2000 ~write:false);
  let w = Hierarchy.data_at h ~now:1 ~addr:0x2000 ~write:true in
  Alcotest.(check int) "write hits buffer" 1 w

let test_hierarchy_pending_fill () =
  let h = Hierarchy.create Hierarchy.baseline in
  let lat1 = Hierarchy.data_at h ~now:100 ~addr:0x5000 ~write:false in
  Alcotest.(check bool) "miss" true (lat1 > 1);
  (* A second access to the same line 10 cycles later waits for the rest
     of the fill, not 1 cycle. The first access also paid a TLB-miss
     penalty, which is not part of the line fill. *)
  let tlb = Hierarchy.baseline.Hierarchy.tlb_miss_penalty in
  let lat2 = Hierarchy.data_at h ~now:110 ~addr:0x5004 ~write:false in
  Alcotest.(check int) "remaining fill time" (lat1 - tlb - 10) lat2;
  (* After the fill completes it is a plain hit. *)
  let lat3 = Hierarchy.data_at h ~now:(100 + lat1 + 1) ~addr:0x5008 ~write:false in
  Alcotest.(check int) "after fill" 1 lat3

let test_hierarchy_counters () =
  let h = Hierarchy.create Hierarchy.baseline in
  ignore (Hierarchy.data_at h ~now:0 ~addr:0x400000 ~write:false);
  Alcotest.(check int) "dram fills" 1 (Hierarchy.mem_accesses h);
  Alcotest.(check int) "l1d accesses" 1 (Cache.accesses (Hierarchy.l1d h));
  Hierarchy.reset_stats h;
  Alcotest.(check int) "reset" 0 (Cache.accesses (Hierarchy.l1d h))

(* qcheck: pending fills against the reference they replaced. The
   reference model is a line -> fill-cycle table over its own copies of
   the caches, as the hierarchy kept before it indexed fills by cache
   frame. A 2-set, 2-way L1 and a small L2 make in-flight lines get
   evicted and missed again; [now] advances 0-40 cycles per access, so
   hits land both inside and after fills. *)
let small_hier =
  let l1 name = Cache.config ~name ~sets:2 ~ways:2 ~line_bytes:32 ~hit_latency:1 in
  {
    Hierarchy.baseline with
    Hierarchy.l1i = l1 "il1";
    l1d = l1 "dl1";
    l2 = Cache.config ~name:"ul2" ~sets:4 ~ways:2 ~line_bytes:64 ~hit_latency:8;
  }

type ref_hier = {
  r_l1i : Cache.t;
  r_l1d : Cache.t;
  r_l2 : Cache.t;
  r_itlb : Cache.t;
  r_dtlb : Cache.t;
  r_fill_i : (int, int) Hashtbl.t; (* line -> cycle its latest fill completes *)
  r_fill_d : (int, int) Hashtbl.t;
}

let ref_create (c : Hierarchy.config) =
  {
    r_l1i = Cache.create c.l1i;
    r_l1d = Cache.create c.l1d;
    r_l2 = Cache.create c.l2;
    r_itlb = Cache.create c.itlb;
    r_dtlb = Cache.create c.dtlb;
    r_fill_i = Hashtbl.create 16;
    r_fill_d = Hashtbl.create 16;
  }

let ref_tlb (c : Hierarchy.config) tlb ~addr =
  match Cache.access tlb ~addr ~write:false with
  | Cache.Hit -> 0
  | Miss | Miss_dirty -> c.tlb_miss_penalty

let ref_l1 (c : Hierarchy.config) r ~l1 ~fills ~now ~addr ~write =
  let hit = (Cache.cfg l1).hit_latency in
  let raw =
    match Cache.access l1 ~addr ~write with
    | Cache.Hit -> hit
    | (Miss | Miss_dirty) as res ->
        if res = Cache.Miss_dirty then ignore (Cache.access r.r_l2 ~addr ~write:true);
        let dram =
          match Cache.access r.r_l2 ~addr ~write:false with
          | Cache.Hit -> 0
          | Miss | Miss_dirty ->
              let chunks = max 1 (c.l2.line_bytes / c.chunk_bytes) in
              c.mem_first_chunk + (c.mem_next_chunk * (chunks - 1))
        in
        hit + c.l2.hit_latency + dram
  in
  let line = Cache.line_index l1 ~addr in
  if raw > hit then begin
    Hashtbl.replace fills line (now + raw);
    raw
  end
  else
    match Hashtbl.find_opt fills line with
    | Some ready when ready > now -> ready - now
    | Some _ | None -> raw

let ref_fetch c r ~now ~addr =
  let tlb = ref_tlb c r.r_itlb ~addr in
  tlb + ref_l1 c r ~l1:r.r_l1i ~fills:r.r_fill_i ~now ~addr ~write:false

let ref_data c r ~now ~addr ~write =
  let tlb = ref_tlb c r.r_dtlb ~addr in
  let access = ref_l1 c r ~l1:r.r_l1d ~fills:r.r_fill_d ~now ~addr ~write in
  if write then 1 + tlb else tlb + access

let prop_pending_fills_vs_reference =
  QCheck.Test.make ~name:"pending fills match the line-table reference" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 20 200)
        (triple (int_bound 2) (int_bound 63) (int_bound 40)))
    (fun ops ->
      let h = Hierarchy.create small_hier and r = ref_create small_hier in
      let now = ref 0 in
      List.for_all
        (fun (kind, line, dt) ->
          now := !now + dt;
          let addr = (line * 32) + (4 * (dt land 7)) in
          let got, want =
            match kind with
            | 0 -> (Hierarchy.fetch_at h ~now:!now ~addr, ref_fetch small_hier r ~now:!now ~addr)
            | k ->
                let write = k = 2 in
                ( Hierarchy.data_at h ~now:!now ~addr ~write,
                  ref_data small_hier r ~now:!now ~addr ~write )
          in
          got = want
          || QCheck.Test.fail_reportf "cycle %d, %s 0x%x: latency %d, reference %d" !now
               (match kind with 0 -> "fetch" | 1 -> "read" | _ -> "write")
               addr got want)
        ops)

(* qcheck: random word reads and writes over 40 pages against a table
   model. Page indices are spread so that several share each slot of the
   store's direct-mapped page cache, and each page uses its first eight
   words, so a read served from the wrong page shows. *)
let prop_store_vs_model =
  QCheck.Test.make ~name:"store matches a table model over 40 pages" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 20 300)
        (triple bool (int_bound 39) (pair (int_bound 7) (int_bound 0xFFFF))))
    (fun ops ->
      let s = Store.create () and m = Hashtbl.create 64 in
      List.for_all
        (fun (write, page, (word, v)) ->
          let addr = (((page * 37) + 3) * 4096) + (4 * word) in
          if write then begin
            Store.write_word s addr (v * 0x10001);
            Hashtbl.replace m addr ((v * 0x10001) land 0xFFFFFFFF);
            true
          end
          else
            let want = Option.value (Hashtbl.find_opt m addr) ~default:0 in
            Store.read_word s addr = want
            || QCheck.Test.fail_reportf "read 0x%x: %d, model %d" addr (Store.read_word s addr) want)
        ops)

let suites =
  [
    ( "mem",
      [
        Alcotest.test_case "store read/write" `Quick test_store_rw;
        Alcotest.test_case "store address errors" `Quick test_store_errors;
        Alcotest.test_case "store float round-trip" `Quick test_store_float;
        Alcotest.test_case "store copy/equal" `Quick test_store_copy_equal;
        Alcotest.test_case "store fold order" `Quick test_store_fold;
        Alcotest.test_case "store sub-word access" `Quick test_store_subword;
        Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "cache LRU" `Quick test_cache_lru;
        Alcotest.test_case "cache dirty eviction" `Quick test_cache_dirty_eviction;
        Alcotest.test_case "cache flush" `Quick test_cache_flush;
        Alcotest.test_case "cache config validation" `Quick test_cache_config_validation;
        Alcotest.test_case "cache negative-address fallback" `Quick
          test_cache_negative_addr_fallback;
        Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
        Alcotest.test_case "hierarchy write buffer" `Quick test_hierarchy_write_buffer;
        Alcotest.test_case "hierarchy pending fill" `Quick test_hierarchy_pending_fill;
        Alcotest.test_case "hierarchy counters" `Quick test_hierarchy_counters;
        QCheck_alcotest.to_alcotest prop_cache_vs_model;
        QCheck_alcotest.to_alcotest prop_pending_fills_vs_reference;
        QCheck_alcotest.to_alcotest prop_store_vs_model;
      ] );
  ]

let test_hierarchy_dirty_writeback_reaches_l2 () =
  let h = Hierarchy.create Hierarchy.baseline in
  (* dirty a line, then evict it with 4 conflicting lines (4-way L1D):
     the write-back must appear as an extra L2 access *)
  ignore (Hierarchy.data_at h ~now:0 ~addr:0x0 ~write:true);
  let l2_before = Cache.accesses (Hierarchy.l2 h) in
  let stride = 256 * 32 in
  for k = 1 to 4 do
    ignore (Hierarchy.data_at h ~now:k ~addr:(k * stride) ~write:false)
  done;
  let l2_delta = Cache.accesses (Hierarchy.l2 h) - l2_before in
  (* 4 fills + 1 write-back *)
  Alcotest.(check int) "write-back counted" 5 l2_delta

let test_l0_miss_penalty () =
  let cfg =
    { Hierarchy.baseline with
      Hierarchy.l0i =
        Some (Cache.config ~name:"il0" ~sets:16 ~ways:1 ~line_bytes:32 ~hit_latency:1) }
  in
  let h = Hierarchy.create cfg in
  (* Accesses 1000 cycles apart: every fill has completed by the next. *)
  ignore (Hierarchy.fetch_at h ~now:0 ~addr:0x1000); (* cold: fills L0 and L1 *)
  let hit = Hierarchy.fetch_at h ~now:1000 ~addr:0x1000 in
  Alcotest.(check int) "L0 hit is 1 cycle" 1 hit;
  (* evict the L0 line (direct-mapped, 16 sets): same set, different tag *)
  ignore (Hierarchy.fetch_at h ~now:2000 ~addr:(0x1000 + (16 * 32)));
  let after_evict = Hierarchy.fetch_at h ~now:3000 ~addr:0x1000 in
  (* L0 miss + L1 hit: 1 + 1 *)
  Alcotest.(check int) "L0 miss adds a cycle" 2 after_evict

let extra_suites =
  [
    ( "mem-extra",
      [
        Alcotest.test_case "dirty write-back reaches L2" `Quick
          test_hierarchy_dirty_writeback_reaches_l2;
        Alcotest.test_case "filter-cache miss penalty" `Quick test_l0_miss_penalty;
      ] );
  ]
