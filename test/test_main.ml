(* The tests run as two executables of about equal run time, which
   `dune runtest` starts side by side: this one (the compile path, the
   host engine, the recorders and the CLI) and test_sim_main.ml (the
   simulators and the goldens that pin them).  Each suite is in exactly
   one of them, its cases in order.

   Alcotest cuts a case's name to fit the line after a column as wide
   as the longest suite name in its run.  The empty suite at the end is
   as wide as "variable-orf", the longest in the other executable, so
   both print every name cut where one executable running every suite
   cut it. *)
let () =
  Alcotest.run "rfh"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("ir", Test_ir.suite);
      ("asm", Test_asm.suite);
      ("analysis", Test_analysis.suite);
      ("strand", Test_strand.suite);
      ("energy", Test_energy.suite);
      ("alloc", Test_alloc.suite);
      ("extra", Test_extra.suite);
      ("pipeline", Test_pipeline.suite);
      ("workloads", Test_workloads.suite);
      ("micro", Test_micro.suite);
      ("transform", Test_transform.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("history", Test_history.suite);
      ("trend", Test_trend.suite);
      ("why", Test_why.suite);
      ("recorder", Test_recorder.suite);
      ("properties", Test_properties.suite);
      ("cli", Test_cli.suite);
      ("label-column", []);
    ]
