(* Trace capture / replay / serialization tests (paper Sec. 5.1
   methodology substrate). *)

let check = Alcotest.check

let traced_stream trace k ~warp =
  let acc = ref [] in
  Sim.Trace.replay trace k ~warp (fun i -> acc := i.Ir.Instr.id :: !acc);
  List.rev !acc

let test_replay_matches_live () =
  List.iter
    (fun name ->
      let k = Rfh.benchmark name in
      let trace = Sim.Trace.capture ~warps:3 ~seed:9 k in
      for w = 0 to 2 do
        check Alcotest.(list int)
          (Printf.sprintf "%s warp %d" name w)
          (fst (Helpers.cf_stream k ~warp:w ~seed:9))
          (traced_stream trace k ~warp:w)
      done)
    [ "VectorAdd"; "Mandelbrot"; "MatrixMul"; "needle" ]

let test_serialization_roundtrip () =
  let k = Rfh.benchmark "EigenValues" in
  let trace = Sim.Trace.capture ~warps:4 ~seed:5 k in
  let text = Sim.Trace.to_string trace in
  match Sim.Trace.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok trace2 ->
    check Alcotest.int "warps preserved" (Sim.Trace.warps trace) (Sim.Trace.warps trace2);
    for w = 0 to 3 do
      check Alcotest.(list int) "sequence preserved"
        (Sim.Trace.block_sequence trace ~warp:w)
        (Sim.Trace.block_sequence trace2 ~warp:w)
    done;
    check Alcotest.string "fixpoint" text (Sim.Trace.to_string trace2)

(* The header's warp count must match the lines that follow, one per
   warp as [to_string] writes them, so a header cannot size the trace
   past its input. *)
let test_of_string_errors () =
  List.iter
    (fun (text, what) ->
      match Sim.Trace.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" what)
    [
      ("garbage", "garbage");
      ("trace v1 warps=1\nwarp 7: 0", "out-of-range warp");
      ("trace v1 warps=1000000000000", "a warp count with no warp lines");
      ("trace v1 warps=-1", "a negative warp count");
      ("trace v1 warps=2\nwarp 0: 0", "a missing warp line");
      ("trace v1 warps=2\nwarp 0: 0\nwarp 0: 1", "a warp listed twice");
      ("trace v1 warps=1\nwarp 0: 0\nwarp 0: 0", "more lines than warps");
      ("trace v1 warps=1\nwarx 0: 0", "a line that is not a warp's");
    ];
  match Sim.Trace.of_string "trace v1 warps=2\n\nwarp 1: 0x2\nwarp 0:\n" with
  | Ok t ->
    check Alcotest.(list int) "warps in any order" [ 0; 0 ] (Sim.Trace.block_sequence t ~warp:1)
  | Error msg -> Alcotest.failf "rejected a well-formed trace: %s" msg

(* A repeat count below 1, a negative block or a warp longer than a
   capture can be (100,000 blocks; the line already holds one) is an
   error, not a trace that block_sequence, replay and edge_profile
   fail on or expand without bound later. *)
let test_of_string_bad_entries () =
  List.iter
    (fun (line, what) ->
      match Sim.Trace.of_string ("trace v1 warps=1\nwarp 0: 1 " ^ line) with
      | Error msg ->
        check Alcotest.bool ("names " ^ what ^ ": " ^ msg) true (String.ends_with ~suffix:line msg)
      | Ok _ -> Alcotest.failf "accepted %s (%s)" what line)
    [
      ("0x-2", "a negative repeat count");
      ("0x0", "a zero repeat count");
      ("-1", "a negative block");
      ("-3x2", "a repeated negative block");
      ("1x100000", "a sequence past the capture cap");
      ("2x4611686018427387903", "a repeat count of max_int");
    ];
  match Sim.Trace.of_string "trace v1 warps=1\nwarp 0: 1 1x99999" with
  | Ok t ->
    check Alcotest.int "a sequence at the cap" 100_000
      (List.length (Sim.Trace.block_sequence t ~warp:0))
  | Error msg -> Alcotest.failf "rejected a sequence at the cap: %s" msg

let test_edge_profile_loop () =
  (* An 8-trip self loop: the backedge fires 7 times per warp. *)
  let k = Workloads.Micro.loop_carried 8 in
  let trace = Sim.Trace.capture ~warps:2 ~seed:1 k in
  let profile = Sim.Trace.edge_profile trace in
  let backedge_count =
    List.fold_left
      (fun acc ((a, b), n) -> if a = b && a >= 0 then acc + n else acc)
      0 profile
  in
  check Alcotest.int "2 warps x 7 backedges" 14 backedge_count;
  let starts = List.assoc_opt (-1, 0) profile in
  check (Alcotest.option Alcotest.int) "2 warp starts" (Some 2) starts

let test_synthesize_plausible () =
  let k = Workloads.Micro.loop_carried 8 in
  let trace = Sim.Trace.capture ~warps:4 ~seed:2 k in
  let walk = Sim.Trace.synthesize trace k ~seed:3 in
  (* The synthetic walk follows real CFG edges... *)
  let nb = Ir.Kernel.block_count k in
  let rec ok = function
    | a :: (b :: _ as rest) ->
      List.mem b (Ir.Terminator.successors k.Ir.Kernel.blocks.(a).Ir.Block.term ~at:a ~num_blocks:nb)
      && ok rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "walk follows CFG" true (ok walk);
  (* ...visits the loop (the dominant path) and stays within the edge
     budget of the 4 captured warps. *)
  let budget =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Sim.Trace.edge_profile trace)
  in
  check Alcotest.bool "walk loops at least once" true (List.length walk >= 4);
  check Alcotest.bool "walk within budget" true (List.length walk <= budget + 1)

let test_capture_deterministic () =
  let k = Rfh.benchmark "Mandelbrot" in
  let t1 = Sim.Trace.capture ~warps:2 ~seed:4 k in
  let t2 = Sim.Trace.capture ~warps:2 ~seed:4 k in
  check Alcotest.string "same trace" (Sim.Trace.to_string t1) (Sim.Trace.to_string t2)

let suite =
  [
    Alcotest.test_case "replay matches live" `Quick test_replay_matches_live;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
    Alcotest.test_case "edge profile loop" `Quick test_edge_profile_loop;
    Alcotest.test_case "synthesize plausible" `Quick test_synthesize_plausible;
    Alcotest.test_case "capture deterministic" `Quick test_capture_deterministic;
    Alcotest.test_case "of_string rejects bad entries" `Quick test_of_string_bad_entries;
  ]
