(* The simulator half of the tests (see test_main.ml). *)
let () =
  Alcotest.run "rfh-sim"
    [
      ("sim", Test_sim.suite);
      ("perf-golden", Test_perf_golden.suite);
      ("simt", Test_simt.suite);
      ("trace", Test_trace.suite);
      ("variable-orf", Test_variable_orf.suite);
      ("explain", Test_explain.suite);
      ("timeline", Test_timeline.suite);
      ("engine", Test_engine.suite);
      ("gcprof", Test_gcprof.suite);
    ]
