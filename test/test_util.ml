(* Unit tests for the util library: PRNG, priority queue, statistics,
   bitsets and the table renderer. *)

let check = Alcotest.check

(* --- Prng --------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Prng.next_int64 a) (Util.Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  check Alcotest.bool "different seeds diverge" false
    (Util.Prng.next_int64 a = Util.Prng.next_int64 b)

let test_prng_int_bounds () =
  let g = Util.Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Util.Prng.int g 13 in
    check Alcotest.bool "in [0,13)" true (x >= 0 && x < 13)
  done

let test_prng_int_invalid () =
  let g = Util.Prng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int g 0))

let test_prng_float_bounds () =
  let g = Util.Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Util.Prng.float g 2.5 in
    check Alcotest.bool "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let g = Util.Prng.create 11 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=1 always true" true (Util.Prng.bernoulli g 1.0);
    check Alcotest.bool "p=0 always false" false (Util.Prng.bernoulli g 0.0)
  done

let test_prng_split_independent () =
  let g = Util.Prng.create 5 in
  let h = Util.Prng.split g in
  (* The split stream must not simply mirror the parent. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Util.Prng.next_int64 g = Util.Prng.next_int64 h then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 3)

let test_prng_copy () =
  let g = Util.Prng.create 123 in
  ignore (Util.Prng.next_int64 g);
  let h = Util.Prng.copy g in
  check Alcotest.int64 "copy continues identically" (Util.Prng.next_int64 g)
    (Util.Prng.next_int64 h)

let test_prng_pick () =
  let g = Util.Prng.create 3 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check Alcotest.bool "picks member" true (Array.mem (Util.Prng.pick g arr) arr)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Util.Prng.pick g [||]))

let test_prng_weighted_pick () =
  let g = Util.Prng.create 17 in
  (* Zero-weight choices must never be selected. *)
  for _ = 1 to 200 do
    let v = Util.Prng.weighted_pick g [ (0.0, `Never); (1.0, `Always) ] in
    check Alcotest.bool "never zero-weight" true (v = `Always)
  done

let test_hash2_deterministic () =
  check Alcotest.int "stable" (Util.Prng.hash2 3 4) (Util.Prng.hash2 3 4);
  check Alcotest.bool "nonneg" true (Util.Prng.hash2 (-5) 7 >= 0);
  check Alcotest.bool "order matters" true (Util.Prng.hash2 1 2 <> Util.Prng.hash2 2 1)

(* --- Pqueue ------------------------------------------------------- *)

let test_pqueue_order () =
  let q = Util.Pqueue.of_list ~cmp:compare [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  check
    Alcotest.(list int)
    "descending drain" [ 9; 6; 5; 4; 3; 2; 1; 1 ]
    (Util.Pqueue.to_sorted_list q)

let test_pqueue_fifo_ties () =
  (* Equal priorities must pop in insertion order (determinism). *)
  let q = Util.Pqueue.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Util.Pqueue.push q) [ (1, "a"); (1, "b"); (1, "c") ];
  check
    Alcotest.(list string)
    "insertion order on ties" [ "a"; "b"; "c" ]
    (List.map snd (Util.Pqueue.to_sorted_list q))

let test_pqueue_mixed_ops () =
  let q = Util.Pqueue.create ~cmp:compare in
  check Alcotest.bool "empty" true (Util.Pqueue.is_empty q);
  check (Alcotest.option Alcotest.int) "pop empty" None (Util.Pqueue.pop q);
  Util.Pqueue.push q 5;
  Util.Pqueue.push q 10;
  check (Alcotest.option Alcotest.int) "peek" (Some 10) (Util.Pqueue.peek q);
  check Alcotest.int "length" 2 (Util.Pqueue.length q);
  check (Alcotest.option Alcotest.int) "pop max" (Some 10) (Util.Pqueue.pop q);
  Util.Pqueue.push q 1;
  check (Alcotest.option Alcotest.int) "pop" (Some 5) (Util.Pqueue.pop q);
  check (Alcotest.option Alcotest.int) "pop" (Some 1) (Util.Pqueue.pop q);
  check Alcotest.bool "empty again" true (Util.Pqueue.is_empty q)

(* --- Stats -------------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_stats_mean () =
  check feq "mean" 2.0 (Util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "empty" 0.0 (Util.Stats.mean [])

let test_stats_geomean () =
  check (Alcotest.float 1e-9) "geomean" 2.0 (Util.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check feq "empty" 0.0 (Util.Stats.geomean [])

let test_stats_percent_ratio () =
  check feq "percent" 50.0 (Util.Stats.percent 1.0 2.0);
  check feq "percent zero" 0.0 (Util.Stats.percent 1.0 0.0);
  check feq "ratio" 0.5 (Util.Stats.ratio 1.0 2.0);
  check feq "ratio zero" 0.0 (Util.Stats.ratio 1.0 0.0)

let test_stats_clamp_round () =
  check feq "clamp low" 0.0 (Util.Stats.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check feq "clamp high" 1.0 (Util.Stats.clamp ~lo:0.0 ~hi:1.0 5.0);
  check feq "clamp mid" 0.5 (Util.Stats.clamp ~lo:0.0 ~hi:1.0 0.5);
  check feq "round" 3.14 (Util.Stats.round_to 2 3.14159)

let test_stats_histogram () =
  let h = Util.Stats.histogram () in
  Util.Stats.hincr h 1;
  Util.Stats.hincr h 1;
  Util.Stats.hincr h ~by:3 2;
  check Alcotest.int "count 1" 2 (Util.Stats.hcount h 1);
  check Alcotest.int "count 2" 3 (Util.Stats.hcount h 2);
  check Alcotest.int "count missing" 0 (Util.Stats.hcount h 99);
  check Alcotest.int "total" 5 (Util.Stats.htotal h);
  check Alcotest.(list (pair int int)) "bins sorted" [ (1, 2); (2, 3) ] (Util.Stats.hbins h);
  check feq "fraction" 0.4 (Util.Stats.hfraction h (fun k -> k = 1))

(* --- Bitset ------------------------------------------------------- *)

let test_bitset_basic () =
  let b = Util.Bitset.create 20 in
  check Alcotest.bool "initially empty" true (Util.Bitset.is_empty b);
  Util.Bitset.set b 0;
  Util.Bitset.set b 19;
  Util.Bitset.set b 7;
  check Alcotest.bool "mem 19" true (Util.Bitset.mem b 19);
  check Alcotest.bool "not mem 8" false (Util.Bitset.mem b 8);
  check Alcotest.(list int) "elements" [ 0; 7; 19 ] (Util.Bitset.elements b);
  check Alcotest.int "count" 3 (Util.Bitset.count b);
  Util.Bitset.clear b 7;
  check Alcotest.bool "cleared" false (Util.Bitset.mem b 7)

let test_bitset_bounds () =
  let b = Util.Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index 8 out of [0, 8)")
    (fun () -> Util.Bitset.set b 8)

let test_bitset_ops () =
  let a = Util.Bitset.create 10 and b = Util.Bitset.create 10 in
  Util.Bitset.set a 1;
  Util.Bitset.set a 2;
  Util.Bitset.set b 2;
  Util.Bitset.set b 3;
  let u = Util.Bitset.copy a in
  check Alcotest.bool "union changed" true (Util.Bitset.union_into ~dst:u b);
  check Alcotest.(list int) "union" [ 1; 2; 3 ] (Util.Bitset.elements u);
  check Alcotest.bool "union idempotent" false (Util.Bitset.union_into ~dst:u b);
  let i = Util.Bitset.copy a in
  ignore (Util.Bitset.inter_into ~dst:i b);
  check Alcotest.(list int) "inter" [ 2 ] (Util.Bitset.elements i);
  let d = Util.Bitset.copy a in
  ignore (Util.Bitset.diff_into ~dst:d b);
  check Alcotest.(list int) "diff" [ 1 ] (Util.Bitset.elements d)

let test_bitset_fill_all () =
  let b = Util.Bitset.create 11 in
  Util.Bitset.fill_all b;
  check Alcotest.int "count = capacity" 11 (Util.Bitset.count b);
  let empty = Util.Bitset.create 11 in
  check Alcotest.bool "not equal to empty" false (Util.Bitset.equal b empty);
  Util.Bitset.clear_all b;
  check Alcotest.bool "equal after clear" true (Util.Bitset.equal b empty)

let test_bitset_capacity_mismatch () =
  let a = Util.Bitset.create 4 and b = Util.Bitset.create 5 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Util.Bitset.union_into ~dst:a b))

(* --- Table -------------------------------------------------------- *)

let test_table_render () =
  let t = Util.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Util.Table.add_row t [ "x"; "y" ];
  Util.Table.add_row t [ "long" ];
  let rendered = Util.Table.render t in
  check Alcotest.bool "title present" true (String.length rendered > 0);
  let lines = String.split_on_char '\n' rendered in
  check Alcotest.int "5 lines" 5 (List.length lines);
  check Alcotest.string "title line" "T" (List.hd lines)

let test_table_row_too_long () =
  let t = Util.Table.create ~title:"T" ~columns:[ "a" ] in
  Alcotest.check_raises "too long" (Invalid_argument "Table.add_row: row longer than header")
    (fun () -> Util.Table.add_row t [ "1"; "2" ])

let test_table_csv () =
  let t = Util.Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Util.Table.add_row t [ "x,y"; "z" ];
  check Alcotest.string "csv escaping" "a,b\n\"x,y\",z" (Util.Table.csv t)

let test_table_float_row () =
  let t = Util.Table.create ~title:"T" ~columns:[ "n"; "v" ] in
  Util.Table.add_float_row t "r" ~decimals:2 [ 1.005 ];
  check Alcotest.bool "formatted" true
    (String.length (Util.Table.csv t) > 0)

(* One HTML renderer for every page: cells are plain text escaped
   once, the title is the caption, short rows are padded. *)
let test_table_html () =
  let t = Util.Table.create ~title:"Fig <1> & 'q'" ~columns:[ "a"; "b"; "c" ] in
  Util.Table.add_row t [ "<x>"; "\"y\" & 'z'" ];
  check Alcotest.string "escaped title and cells, short row padded"
    "<table>\n<caption>Fig &lt;1&gt; &amp; &#39;q&#39;</caption>\n\
     <tr><th class=l>a</th><th>b</th><th>c</th></tr>\n\
     <tr><td class=l>&lt;x&gt;</td><td>&quot;y&quot; &amp; &#39;z&#39;</td><td></td></tr>\n\
     </table>\n"
    (Util.Table.html t);
  check Alcotest.string "header-only table"
    "<table>\n<caption>H</caption>\n<tr><th class=l>only</th></tr>\n</table>\n"
    (Util.Table.html (Util.Table.create ~title:"H" ~columns:[ "only" ]))

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng int invalid" `Quick test_prng_int_invalid;
    Alcotest.test_case "prng float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng bernoulli extremes" `Quick test_prng_bernoulli_extremes;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng pick" `Quick test_prng_pick;
    Alcotest.test_case "prng weighted pick" `Quick test_prng_weighted_pick;
    Alcotest.test_case "hash2" `Quick test_hash2_deterministic;
    Alcotest.test_case "pqueue order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
    Alcotest.test_case "pqueue mixed ops" `Quick test_pqueue_mixed_ops;
    Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats percent/ratio" `Quick test_stats_percent_ratio;
    Alcotest.test_case "stats clamp/round" `Quick test_stats_clamp_round;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset ops" `Quick test_bitset_ops;
    Alcotest.test_case "bitset fill-all" `Quick test_bitset_fill_all;
    Alcotest.test_case "bitset capacity mismatch" `Quick test_bitset_capacity_mismatch;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table html" `Quick test_table_html;
    Alcotest.test_case "table row too long" `Quick test_table_row_too_long;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "table float row" `Quick test_table_float_row;
  ]
