(* Regenerates the committed Sim.Perf goldens (rendered by
   perf_golden_doc.ml, which test_perf_golden.ml also uses):

     dune exec test/gen_perf_golden.exe > test/perf_golden.json
     dune exec test/gen_perf_golden.exe -- timeline > test/perf_timeline_golden.jsonl

   perf_golden.json was captured from the pre-predecode list-based
   engine, perf_timeline_golden.jsonl from the per-cycle engine before
   dead-cycle jumping.  Re-run this only when the simulated semantics
   deliberately change, never to make a perf-only rewrite pass. *)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    Obs.Json.to_channel stdout (Perf_golden_doc.results_doc ());
    print_newline ()
  | [ _; "timeline" ] -> print_string (Perf_golden_doc.timeline_doc ())
  | _ ->
    prerr_endline "usage: gen_perf_golden [timeline]";
    exit 2
