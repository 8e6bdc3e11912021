(* Regenerates the committed goldens (rendered by perf_golden_doc.ml,
   which test_perf_golden.ml also uses):

     dune exec test/gen_perf_golden.exe > test/perf_golden.json
     dune exec test/gen_perf_golden.exe -- timeline > test/perf_timeline_golden.jsonl
     dune exec test/gen_perf_golden.exe -- wide > test/perf_wide_golden.jsonl
     dune exec test/gen_perf_golden.exe -- cut > test/perf_cut_golden.jsonl
     dune exec test/gen_perf_golden.exe -- traffic > test/traffic_golden.jsonl
     dune exec test/gen_perf_golden.exe -- verify > test/verify_golden.jsonl
     dune exec test/gen_perf_golden.exe -- placement > test/placement_golden.jsonl
     dune exec test/gen_perf_golden.exe -- simt > test/simt_golden.jsonl
     dune exec test/gen_perf_golden.exe -- streams > test/alloc_streams_golden.jsonl
     dune build && dune exec test/gen_perf_golden.exe -- cli > test/cli_golden.txt

   test/all_golden.txt, which make parity diffs the serial rfh all
   against, is rfh's own output and not this program's:

     dune exec bin/rfh.exe -- all --warps 8 --jobs 1 > test/all_golden.txt

   perf_golden.json was captured from the pre-predecode list-based
   engine, perf_timeline_golden.jsonl from the per-cycle engine before
   dead-cycle jumping, perf_wide_golden.jsonl from the engine that
   walked a per-cycle array snapshot of its active queue, before the
   linked queue walked in place, perf_cut_golden.jsonl from the engine
   whose walk classified every warp behind the issuer each cycle,
   before the walk ended at the issue, traffic_golden.jsonl from the
   per-operand Sim.Traffic walk over list-based FIFO caches,
   verify_golden.jsonl from the round-robin Alloc.Verify fixpoint over
   boxed cells before the worklist, placement_golden.jsonl from the
   allocator's binary-heap queues over list-based reaching and def-use
   tables before the compile path moved to word bitsets and once-scored
   candidates, simt_golden.jsonl from the Sim.Simt and Sim.Variable_orf
   walks that priced every dynamic instruction operand by operand,
   before they reused Sim.Traffic's per-pc rows, and
   alloc_streams_golden.jsonl from the allocator whose two phases wrote
   its explain verdicts into a side table as they drained, before each
   candidate recorded its own outcome.  Re-run this only
   when the simulated semantics or the verdicts deliberately change,
   never to make a perf-only rewrite pass.  The allocator's multi-definition clobber fix (ROADMAP item 1)
   is such a change: it turns the rejecting seeds' verdicts into "ok",
   so it regenerates verify_golden.jsonl deliberately, and it changes
   the rejecting kernels' placements and streams, so it regenerates
   placement_golden.jsonl and alloc_streams_golden.jsonl deliberately
   too.  cli_golden.txt is the rfh transcript (see cli_transcript.ml);
   run from the repository root, it drives the built bin/rfh.exe. *)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    Obs.Json.to_channel stdout (Perf_golden_doc.results_doc ());
    print_newline ()
  | [ _; "timeline" ] -> print_string (Perf_golden_doc.timeline_doc ())
  | [ _; "wide" ] -> print_string (Perf_golden_doc.wide_doc ())
  | [ _; "cut" ] -> print_string (Perf_golden_doc.cut_doc ())
  | [ _; "traffic" ] -> print_string (Perf_golden_doc.traffic_doc ())
  | [ _; "verify" ] -> print_string (Perf_golden_doc.verify_doc ())
  | [ _; "placement" ] -> print_string (Perf_golden_doc.placement_doc ())
  | [ _; "simt" ] -> print_string (Perf_golden_doc.simt_doc ())
  | [ _; "streams" ] -> print_string (Perf_golden_doc.streams_doc ())
  | [ _; "cli" ] ->
    print_string
      (Cli_transcript.render ~rfh:"_build/default/bin/rfh.exe" ~baseline:"baselines/default.json")
  | _ ->
    prerr_endline
      "usage: gen_perf_golden [timeline|wide|cut|traffic|verify|placement|simt|streams|cli]";
    exit 2
