open Riq_util

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in inclusive range" true (v >= -5 && v <= 5);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 2.5)
  done

let test_rng_split () =
  let a = Rng.create 9 in
  let c = Rng.split a in
  let d = Rng.split a in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 c <> Rng.bits64 d)

let test_rng_shuffle () =
  let rng = Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ---- Stats ---- *)

let test_mean () =
  checkf "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  checkf "empty" 0. (Stats.mean [||])

let test_geomean () =
  checkf "geomean" 2. (Stats.geomean [| 1.; 2.; 4. |]);
  checkf "empty" 0. (Stats.geomean [||])

let test_stddev () =
  checkf "constant" 0. (Stats.stddev [| 5.; 5.; 5. |]);
  checkf "spread" 2. (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_minmax () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 0. |] in
  checkf "min" (-1.) lo;
  checkf "max" 7. hi;
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.min_max: empty array")
    (fun () -> ignore (Stats.min_max [||]))

let test_percent_ratio () =
  checkf "percent" 25. (Stats.percent 1. 4.);
  checkf "percent of zero" 0. (Stats.percent 1. 0.);
  checkf "ratio" 0.5 (Stats.ratio 1. 2.);
  checkf "ratio of zero" 0. (Stats.ratio 1. 0.)

let test_counter () =
  let c = Stats.counter "events" in
  Stats.incr c;
  Stats.add c 4;
  check "count" 5 (Stats.value c);
  Alcotest.(check string) "name" "events" (Stats.name c);
  Stats.reset c;
  check "reset" 0 (Stats.value c)

let test_quantile () =
  checkf "empty" 0. (Stats.quantile 0.5 [||]);
  checkf "singleton p0" 7. (Stats.quantile 0. [| 7. |]);
  checkf "singleton p100" 7. (Stats.quantile 1. [| 7. |]);
  (* Linear interpolation between order statistics, input order irrelevant. *)
  checkf "median even" 2.5 (Stats.quantile 0.5 [| 4.; 1.; 3.; 2. |]);
  checkf "median odd" 3. (Stats.quantile 0.5 [| 5.; 1.; 3. |]);
  checkf "p25 interpolated" 1.75 (Stats.quantile 0.25 [| 4.; 1.; 3.; 2. |]);
  checkf "p95" 9.55 (Stats.quantile 0.95 (Array.init 10 (fun i -> float_of_int (i + 1))));
  checkf "min" 1. (Stats.quantile 0. [| 4.; 1.; 3. |]);
  checkf "max" 4. (Stats.quantile 1. [| 4.; 1.; 3. |]);
  Alcotest.check_raises "q out of range" (Invalid_argument "Stats.quantile: q outside [0, 1]")
    (fun () -> ignore (Stats.quantile 1.5 [| 1. |]))

(* ---- Json ---- *)

let test_json_escaping () =
  let s v = Json.to_string (Json.String v) in
  Alcotest.(check string) "plain" "\"abc\"" (s "abc");
  Alcotest.(check string) "quote" "\"a\\\"b\"" (s "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (s "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (s "a\nb");
  Alcotest.(check string) "tab and cr" "\"a\\tb\\rc\"" (s "a\tb\rc");
  Alcotest.(check string) "control char" "\"a\\u0001b\"" (s "a\x01b");
  Alcotest.(check string) "nul" "\"\\u0000\"" (s "\x00");
  Alcotest.(check string) "escaped key" "{\"a\\nb\":1}"
    (Json.to_string (Json.Obj [ ("a\nb", Json.Int 1) ]))

let test_json_null () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "null in list" "[null,1]"
    (Json.to_string (Json.List [ Json.Null; Json.Int 1 ]));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_parse_basics () =
  let p = Json.of_string_exn in
  Alcotest.(check bool) "null" true (p "null" = Json.Null);
  Alcotest.(check bool) "bools" true (p "true" = Json.Bool true && p "false" = Json.Bool false);
  Alcotest.(check bool) "int" true (p "-42" = Json.Int (-42));
  Alcotest.(check bool) "float" true (p "2.5" = Json.Float 2.5);
  Alcotest.(check bool) "exponent is float" true (p "1e3" = Json.Float 1000.);
  Alcotest.(check bool) "string" true (p "\"ab\"" = Json.String "ab");
  Alcotest.(check bool) "whitespace" true
    (p " [ 1 , {\"a\" : null} ] \n" = Json.List [ Json.Int 1; Json.Obj [ ("a", Json.Null) ] ]);
  Alcotest.(check bool) "empty containers" true
    (p "[]" = Json.List [] && p "{}" = Json.Obj []);
  (* Integers past the int range stay numeric as floats. *)
  match p "123456789012345678901234567890" with
  | Json.Float _ -> ()
  | _ -> Alcotest.fail "overflowing integer should parse as Float"

let test_json_parse_escapes () =
  let p = Json.of_string_exn in
  Alcotest.(check bool) "simple escapes" true
    (p "\"a\\n\\t\\r\\\\\\\"\\/b\"" = Json.String "a\n\t\r\\\"/b");
  Alcotest.(check bool) "unicode escape" true (p "\"\\u0041\"" = Json.String "A");
  Alcotest.(check bool) "two-byte utf8" true (p "\"\\u00e9\"" = Json.String "\xc3\xa9");
  Alcotest.(check bool) "three-byte utf8" true (p "\"\\u20ac\"" = Json.String "\xe2\x82\xac");
  Alcotest.(check bool) "surrogate pair" true
    (p "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80")

let test_json_parse_errors () =
  let rejects s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
    | Error _ -> ()
  in
  List.iter rejects
    [
      ""; "nul"; "tru"; "01"; "+1"; "1."; ".5"; "1e"; "--1";
      "\"unterminated"; "\"bad \\x escape\""; "\"\\ud83d\"" (* lone surrogate *);
      "[1,]"; "[1 2]"; "{\"a\"}"; "{\"a\":1,}"; "{1:2}"; "}";
      "null null" (* trailing garbage *); "[1] x";
    ]

(* Nesting is capped: max_depth levels parse, one more is refused, and
   8 MB of '[' is refused at the cap, not after recursing through it. *)
let test_json_depth_cap () =
  let nested k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "max_depth levels parse" true
    (Result.is_ok (Json.of_string (nested Json.max_depth)));
  Alcotest.(check bool) "one more is refused" true
    (Result.is_error (Json.of_string (nested (Json.max_depth + 1))));
  Alcotest.(check bool) "objects count too" true
    (Result.is_error
       (Json.of_string
          (String.concat "" (List.init (Json.max_depth + 1) (fun _ -> "{\"a\":")))));
  let brackets = String.make (8 * 1024 * 1024) '[' in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "8 MB of [ refused" true (Result.is_error (Json.of_string brackets));
  let took = Unix.gettimeofday () -. t0 in
  if took > 1. then Alcotest.failf "8 MB of [ took %.1f s to refuse" took

(* Parse-side round trip: any document the emitter can produce comes back
   equal, up to the documented Int/Float split (an integral float prints
   without a fraction and re-reads as Int). *)
let rec json_eq a b =
  match (a, b) with
  | Json.Int i, Json.Float f | Json.Float f, Json.Int i -> float_of_int i = f
  | Json.Float x, Json.Float y -> x = y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_eq v v') xs ys
  | _ -> a = b

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        (* Finite by construction (m * 2^e, |e| <= 20). *)
        map2
          (fun m e -> Json.Float (Float.ldexp (float_of_int m) e))
          (int_range (-1000000) 1000000) (int_range (-20) 20);
        map (fun s -> Json.String s) (string_size (int_bound 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json parses its own output" ~count:500
    (QCheck.make ~print:(fun j -> Json.to_string j) json_gen)
    (fun doc ->
      json_eq doc (Json.of_string_exn (Json.to_string doc))
      && json_eq doc (Json.of_string_exn (Json.to_string ~indent:true doc)))

let prop_json_string_escaping_roundtrip =
  QCheck.Test.make ~name:"json string escaping round-trips arbitrary bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s -> Json.of_string_exn (Json.to_string (Json.String s)) = Json.String s)

(* ---- Bits ---- *)

let test_bits_mask () =
  check "mask 0" 0 (Bits.mask 0);
  check "mask 8" 255 (Bits.mask 8);
  check "mask 32" 0xFFFFFFFF (Bits.mask 32)

let test_bits_fields () =
  let w = Bits.insert 0 ~lo:4 ~width:8 0xAB in
  check "insert" 0xAB0 w;
  check "extract" 0xAB (Bits.extract w ~lo:4 ~width:8);
  check "overwrite" 0xCD (Bits.extract (Bits.insert w ~lo:4 ~width:8 0xCD) ~lo:4 ~width:8)

let test_sign_extend () =
  check "positive" 5 (Bits.sign_extend 5 ~width:16);
  check "negative" (-1) (Bits.sign_extend 0xFFFF ~width:16);
  check "min" (-32768) (Bits.sign_extend 0x8000 ~width:16)

let test_arith32 () =
  check "wrap add" (-2147483648) (Bits.add32 0x7FFFFFFF 1);
  check "wrap sub" 2147483647 (Bits.sub32 (-2147483648) 1);
  check "mul" (-6) (Bits.mul32 2 (-3));
  check "mul wrap" 0 (Bits.mul32 0x10000 0x10000)

let test_log2 () =
  check "log2 1" 0 (Bits.log2 1);
  check "log2 1024" 10 (Bits.log2 1024);
  Alcotest.(check bool) "pow2" true (Bits.is_pow2 64);
  Alcotest.(check bool) "not pow2" false (Bits.is_pow2 48);
  Alcotest.(check bool) "zero" false (Bits.is_pow2 0)

(* ---- Table ---- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "long-cell"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains cell" true (contains s "long-cell")

let test_table_bad_row () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: cell count does not match column count") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "pct" "12.3%" (Table.cell_pct 12.345)

(* ---- property tests ---- *)

let prop_mask_extract =
  QCheck.Test.make ~name:"insert then extract returns the value" ~count:500
    QCheck.(triple (int_bound 24) (int_bound 8) (int_bound 0xFFFF))
    (fun (lo, w, v) ->
      let width = w + 1 in
      let v = v land Bits.mask width in
      Bits.extract (Bits.insert 0 ~lo ~width v) ~lo ~width = v)

let prop_sign_extend_roundtrip =
  QCheck.Test.make ~name:"sign_extend is idempotent on its range" ~count:500
    QCheck.(int_range (-32768) 32767)
    (fun v -> Bits.sign_extend (v land 0xFFFF) ~width:16 = v)

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng split" `Quick test_rng_split;
        Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle;
        Alcotest.test_case "stats mean" `Quick test_mean;
        Alcotest.test_case "stats geomean" `Quick test_geomean;
        Alcotest.test_case "stats stddev" `Quick test_stddev;
        Alcotest.test_case "stats min/max" `Quick test_minmax;
        Alcotest.test_case "stats percent/ratio" `Quick test_percent_ratio;
        Alcotest.test_case "stats counter" `Quick test_counter;
        Alcotest.test_case "stats quantile" `Quick test_quantile;
        Alcotest.test_case "json string escaping" `Quick test_json_escaping;
        Alcotest.test_case "json null" `Quick test_json_null;
        Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
        Alcotest.test_case "json parse escapes" `Quick test_json_parse_escapes;
        Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "json depth cap" `Quick test_json_depth_cap;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_json_string_escaping_roundtrip;
        Alcotest.test_case "bits mask" `Quick test_bits_mask;
        Alcotest.test_case "bits fields" `Quick test_bits_fields;
        Alcotest.test_case "bits sign extend" `Quick test_sign_extend;
        Alcotest.test_case "bits 32-bit arithmetic" `Quick test_arith32;
        Alcotest.test_case "bits log2" `Quick test_log2;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity" `Quick test_table_bad_row;
        Alcotest.test_case "table cells" `Quick test_table_cells;
        QCheck_alcotest.to_alcotest prop_mask_extract;
        QCheck_alcotest.to_alcotest prop_sign_extend_roundtrip;
      ] );
  ]

let test_table_csv () =
  let t = Table.create ~title:"ignored" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "with, comma"; "quote\"d" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv"
    "name,v\nplain,1\n\"with, comma\",\"quote\"\"d\"\n" csv

let csv_suites =
  [ ("table-csv", [ Alcotest.test_case "csv rendering" `Quick test_table_csv ]) ]
