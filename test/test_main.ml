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
      ("machine", Test_machine.suite);
      ("sim", Test_sim.suite);
      ("perf-golden", Test_perf_golden.suite);
      ("simt", Test_simt.suite);
      ("trace", Test_trace.suite);
      ("variable-orf", Test_variable_orf.suite);
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
      ("explain", Test_explain.suite);
      ("timeline", Test_timeline.suite);
      ("recorder", Test_recorder.suite);
      ("engine", Test_engine.suite);
      ("gcprof", Test_gcprof.suite);
      ("properties", Test_properties.suite);
      ("cli", Test_cli.suite);
    ]
