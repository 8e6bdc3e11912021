(* Regenerates the committed goldens (rendered by perf_golden_doc.ml,
   which test_perf_golden.ml also uses):

     dune exec test/gen_perf_golden.exe > test/perf_golden.json
     dune exec test/gen_perf_golden.exe -- timeline > test/perf_timeline_golden.jsonl
     dune exec test/gen_perf_golden.exe -- traffic > test/traffic_golden.jsonl
     dune exec test/gen_perf_golden.exe -- verify > test/verify_golden.jsonl
     dune exec test/gen_perf_golden.exe -- placement > test/placement_golden.jsonl
     dune build && dune exec test/gen_perf_golden.exe -- cli > test/cli_golden.txt

   perf_golden.json was captured from the pre-predecode list-based
   engine, perf_timeline_golden.jsonl from the per-cycle engine before
   dead-cycle jumping, traffic_golden.jsonl from the per-operand
   Sim.Traffic walk over list-based FIFO caches, verify_golden.jsonl
   from the round-robin Alloc.Verify fixpoint over boxed cells before
   the worklist, placement_golden.jsonl from the allocator's
   binary-heap queues over list-based reaching and def-use tables
   before the compile path moved to word bitsets and once-scored
   candidates.  Re-run this only when the simulated semantics or the
   verdicts deliberately change, never to make a perf-only rewrite
   pass.  The allocator's multi-definition clobber fix (ROADMAP item 1)
   is such a change: it turns the rejecting seeds' verdicts into "ok",
   so it regenerates verify_golden.jsonl deliberately, and it changes
   the rejecting kernels' placements, so it regenerates
   placement_golden.jsonl deliberately too.  cli_golden.txt is the rfh
   transcript (see cli_transcript.ml); run from the repository root, it
   drives the built bin/rfh.exe. *)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    Obs.Json.to_channel stdout (Perf_golden_doc.results_doc ());
    print_newline ()
  | [ _; "timeline" ] -> print_string (Perf_golden_doc.timeline_doc ())
  | [ _; "traffic" ] -> print_string (Perf_golden_doc.traffic_doc ())
  | [ _; "verify" ] -> print_string (Perf_golden_doc.verify_doc ())
  | [ _; "placement" ] -> print_string (Perf_golden_doc.placement_doc ())
  | [ _; "cli" ] ->
    print_string
      (Cli_transcript.render ~rfh:"_build/default/bin/rfh.exe" ~baseline:"baselines/default.json")
  | _ ->
    prerr_endline "usage: gen_perf_golden [timeline|traffic|verify|placement|cli]";
    exit 2
