(* Experiment-driver tests: the paper's headline relationships must
   hold on the full workload suite (shape reproduction), and the report
   plumbing must be well-formed. *)

let check = Alcotest.check

(* A reduced-warp option set keeps the suite fast; normalized results
   are warp-count independent for warp-uniform kernels. *)
let opts = lazy { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }

let test_fig13_shape () =
  let opts = Lazy.force opts in
  let means =
    Experiments.Sweep.means opts
      (List.concat_map
         (fun s -> List.map (fun n -> (s, n)) [ 1; 3; 6; 8 ])
         Experiments.Sweep.all_schemes)
      (fun e (scheme, entries) -> Experiments.Sweep.energy_ratio opts e scheme ~entries)
  in
  let e scheme ~entries = List.assoc (scheme, entries) means in
  List.iter
    (fun entries ->
      check Alcotest.bool "SW beats HW at every size" true
        (e Experiments.Sweep.Sw_two ~entries < e Experiments.Sweep.Hw_two ~entries);
      check Alcotest.bool "LRF helps HW" true
        (e Experiments.Sweep.Hw_three ~entries < e Experiments.Sweep.Hw_two ~entries);
      check Alcotest.bool "LRF helps SW" true
        (e Experiments.Sweep.Sw_three_unified ~entries < e Experiments.Sweep.Sw_two ~entries);
      check Alcotest.bool "split LRF >= unified" true
        (e Experiments.Sweep.Sw_three_split ~entries
         <= e Experiments.Sweep.Sw_three_unified ~entries +. 1e-9);
      check Alcotest.bool "everything beats baseline" true
        (e Experiments.Sweep.Hw_two ~entries < 1.0))
    [ 1; 3; 6; 8 ]

let test_fig13_optimum_at_three () =
  let opts = Lazy.force opts in
  let best_sw, _ = Experiments.Energy_sweep.best opts Experiments.Sweep.Sw_three_split in
  let best_hw, _ = Experiments.Energy_sweep.best opts Experiments.Sweep.Hw_two in
  (* Paper: both two-level schemes and the SW three-level scheme are
     most efficient at 3 entries per thread. *)
  check Alcotest.int "SW optimum at 3 entries" 3 best_sw;
  check Alcotest.int "HW optimum at 3 entries" 3 best_hw

let test_headline_savings () =
  let opts = Lazy.force opts in
  let _, sw = Experiments.Energy_sweep.best opts Experiments.Sweep.Sw_three_split in
  let _, hw = Experiments.Energy_sweep.best opts Experiments.Sweep.Hw_two in
  (* Paper: 54% (SW, three-level) and 34% (HW RFC).  The substrate is
     synthetic, so accept the band around each. *)
  check Alcotest.bool "SW saves 45-60%" true (sw > 0.40 && sw < 0.55);
  check Alcotest.bool "HW saves 28-42%" true (hw > 0.58 && hw < 0.72)

let test_fig14_mrf_dominates () =
  let opts = Lazy.force opts in
  let share = Experiments.Energy_breakdown.mrf_share opts in
  (* Paper: roughly two thirds of the remaining energy is MRF. *)
  check Alcotest.bool "MRF majority of remaining energy" true (share > 0.5 && share < 0.9)

let test_fig15_worst_cases () =
  let opts = Lazy.force opts in
  let ratios = Experiments.Per_benchmark.ratios opts in
  check Alcotest.int "all benchmarks present" 36 (List.length ratios);
  (* Paper Fig. 15: Reduction and ScalarProd show the smallest gains;
     they must sit in the worst third here. *)
  let names_in_order = List.map fst ratios in
  let position name =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = name then i else go (i + 1) rest
    in
    go 0 names_in_order
  in
  check Alcotest.bool "Reduction in worst third" true (position "Reduction" >= 24);
  check Alcotest.bool "ScalarProd in worst third" true (position "ScalarProd" >= 24);
  (* Everyone saves something. *)
  List.iter (fun (_, r) -> check Alcotest.bool "ratio < 1" true (r < 1.0)) ratios

let test_fig2_read_once () =
  let opts = Lazy.force opts in
  let f = Experiments.Fig2.read_once_fraction opts in
  (* Paper: up to 70% of values are read only once. *)
  check Alcotest.bool "read-once fraction 55-85%" true (f > 0.55 && f < 0.85)

let test_perf_no_penalty_at_8 () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts)
      [ "VectorAdd"; "MatrixMul"; "Mandelbrot"; "Reduction"; "hotspot" ]
  in
  let means =
    Experiments.Sweep.means opts
      Sim.Perf.[ (On_dependence, 8); (At_strand_boundaries, 8); (On_dependence, 2) ]
      (fun e (policy, active) -> Experiments.Perf_study.ipc_ratio opts e ~policy ~active)
  in
  let rel = List.assoc (Sim.Perf.On_dependence, 8) means in
  check Alcotest.bool "8 active warps match single-level" true (rel >= 0.95);
  let rel_sw = List.assoc (Sim.Perf.At_strand_boundaries, 8) means in
  check Alcotest.bool "SW policy too" true (rel_sw >= 0.95);
  let rel2 = List.assoc (Sim.Perf.On_dependence, 2) means in
  check Alcotest.bool "2 active warps lose IPC" true (rel2 < 0.9)

let test_encoding_overhead () =
  let opts = Lazy.force opts in
  let r = Experiments.Encoding.compute opts in
  check Alcotest.bool "net positive even worst case" true (r.Experiments.Encoding.net_worst > 0.0);
  check Alcotest.bool "best case overhead ~0.3%" true
    (r.Experiments.Encoding.best_case_overhead > 0.002
     && r.Experiments.Encoding.best_case_overhead < 0.005);
  check Alcotest.bool "worst >= best" true
    (r.Experiments.Encoding.worst_case_overhead >= r.Experiments.Encoding.best_case_overhead)

let test_limit_study_ordering () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts)
      [ "VectorAdd"; "MatrixMul"; "Reduction"; "Mandelbrot"; "cp"; "srad" ]
  in
  let r = Experiments.Limit.compute opts in
  check Alcotest.bool "all-LRF is the floor" true
    (r.Experiments.Limit.ideal_all_lrf < r.Experiments.Limit.ideal_all_orf);
  check Alcotest.bool "all-ORF beats the real design" true
    (r.Experiments.Limit.ideal_all_orf < r.Experiments.Limit.fixed_best);
  check Alcotest.bool "oracle sizing never loses" true
    (r.Experiments.Limit.variable_orf_oracle <= r.Experiments.Limit.fixed_best +. 1e-9);
  check Alcotest.bool "backward flush costs energy" true
    (r.Experiments.Limit.hw_flush_backward >= r.Experiments.Limit.hw_keep_backward);
  check Alcotest.bool "never-flush is an improvement" true
    (r.Experiments.Limit.sw_never_flush <= r.Experiments.Limit.fixed_best +. 1e-9);
  check Alcotest.bool "8-at-3 scheduling ideal improves" true
    (r.Experiments.Limit.scheduling_ideal_8at3 <= r.Experiments.Limit.fixed_best +. 1e-9)

let test_ablation_ordering () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts)
      [ "MatrixMul"; "Mandelbrot"; "hotspot"; "cp" ]
  in
  let variants = Experiments.Ablation.compute opts in
  let find label =
    (List.find (fun v -> v.Experiments.Ablation.label = label) variants)
      .Experiments.Ablation.normalized_energy
  in
  let full = find "full design (split LRF, partial ranges, read operands)" in
  check Alcotest.bool "full beats baseline algorithm" true
    (full <= find "baseline algorithm only (Sec. 4.2)" +. 1e-9);
  check Alcotest.bool "full beats no-LRF" true (full <= find "no LRF (two-level)" +. 1e-9);
  check Alcotest.bool "full beats unified" true
    (full <= find "unified LRF instead of split (Sec. 6.3)" +. 1e-9);
  check Alcotest.bool "tagless HW still loses to SW" true
    (full < find "HW RFC with free tags (tag-energy ablation)");
  check Alcotest.bool "tags cost something" true
    (find "HW RFC with free tags (tag-energy ablation)"
     <= find "HW RFC with tag energy" +. 1e-9)

let test_divergence_stability () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts)
      [ "Mandelbrot"; "EigenValues"; "needle"; "VectorAdd" ]
  in
  let rows = Experiments.Divergence.compute opts in
  check Alcotest.int "4 rows" 4 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool
        (r.Experiments.Divergence.name ^ " ratio stable under divergence")
        true
        (abs_float (r.Experiments.Divergence.divergent_ratio -. r.Experiments.Divergence.uniform_ratio)
         < 0.06))
    rows;
  (* Mandelbrot's escape test diverges. *)
  let mandel =
    List.find (fun r -> r.Experiments.Divergence.name = "Mandelbrot") rows
  in
  check Alcotest.bool "mandelbrot diverges" true
    (mandel.Experiments.Divergence.divergent_branches > 0
     && mandel.Experiments.Divergence.simd_efficiency < 1.0)

let test_scheduling_jit_best () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts)
      [ "Reduction"; "ScalarProd"; "Dct8x8" ]
  in
  let rows = Experiments.Scheduling.compute opts in
  List.iter
    (fun r ->
      check Alcotest.bool (r.Experiments.Scheduling.name ^ " best <= original") true
        (r.Experiments.Scheduling.best <= r.Experiments.Scheduling.original +. 1e-9);
      check Alcotest.bool (r.Experiments.Scheduling.name ^ " best is the min") true
        (r.Experiments.Scheduling.best
         <= min r.Experiments.Scheduling.rescheduled
              (min r.Experiments.Scheduling.unrolled r.Experiments.Scheduling.unrolled_rescheduled)
            +. 1e-9))
    rows;
  (* The paper's worst cases improve under unroll+hoist. *)
  let reduction = List.find (fun r -> r.Experiments.Scheduling.name = "Reduction") rows in
  check Alcotest.bool "Reduction gains from unroll+resched" true
    (reduction.Experiments.Scheduling.unrolled_rescheduled
     < reduction.Experiments.Scheduling.original -. 0.05)

let test_variable_orf_realistic_loses () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts) [ "MatrixMul"; "Mandelbrot"; "cp" ]
  in
  let r = Experiments.Limit.compute opts in
  check Alcotest.bool "realistic worse than oracle" true
    (r.Experiments.Limit.variable_orf_realistic > r.Experiments.Limit.variable_orf_oracle);
  check Alcotest.bool "realistic worse than fixed" true
    (r.Experiments.Limit.variable_orf_realistic > r.Experiments.Limit.fixed_best)

let test_pressure_table () =
  let opts = Lazy.force opts in
  let t = Experiments.Pressure_study.table opts in
  let rendered = Util.Table.render t in
  (* One line per benchmark plus title/header/separator. *)
  check Alcotest.int "row count" (36 + 3) (List.length (String.split_on_char '\n' rendered))

let test_report_tables_exist () =
  let opts =
    Experiments.Options.with_benchmarks (Lazy.force opts) [ "VectorAdd"; "MatrixMul" ]
  in
  List.iter
    (fun (name, artefact) ->
      let tables = Experiments.Report.tables_of opts artefact in
      check Alcotest.bool (name ^ " has tables") true (tables <> []);
      List.iter
        (fun t -> check Alcotest.bool (name ^ " renders") true (String.length (Util.Table.render t) > 0))
        tables)
    Experiments.Report.artefact_names

(* The tentpole parallelism guarantee: every artefact's rendered tables
   are byte-identical whether the per-benchmark fan-out runs serially
   or on 4 domains. *)
let test_run_all_parity () =
  let base =
    Experiments.Options.with_benchmarks (Lazy.force opts)
      [ "VectorAdd"; "MatrixMul"; "Mandelbrot"; "Reduction"; "cp"; "hotspot" ]
  in
  let render_all opts =
    Experiments.Report.clear_caches ();
    Experiments.Report.artefact_names
    |> List.concat_map (fun (_, a) ->
           List.map Util.Table.render (Experiments.Report.tables_of opts a))
    |> String.concat "\n"
  in
  let serial = render_all (Experiments.Options.with_jobs base 1) in
  let parallel = render_all (Experiments.Options.with_jobs base 4) in
  check Alcotest.string "jobs=4 output byte-identical to jobs=1" serial parallel

(* Every computing artefact is one per-benchmark fan-out: exactly one
   profiled region with one task per benchmark; [tables] computes
   nothing and opens none. *)
let test_one_region_per_artefact () =
  let opts =
    Experiments.Options.with_jobs
      (Experiments.Options.with_benchmarks
         { (Experiments.Options.default ()) with Experiments.Options.warps = 8 }
         [ "VectorAdd"; "MatrixMul"; "Reduction"; "cp" ])
      2
  in
  List.iter
    (fun (name, artefact) ->
      Experiments.Report.clear_caches ();
      let _, report =
        Obs.Engine.profile ~gcprof:false ~jobs:2 (fun () ->
            Experiments.Report.tables_of opts artefact)
      in
      let regions = report.Obs.Engine.regions in
      if artefact = Experiments.Report.Tables then
        check Alcotest.int "tables opens no region" 0 (List.length regions)
      else begin
        check Alcotest.int (name ^ ": one region") 1 (List.length regions);
        List.iter
          (fun (r : Obs.Engine.region) ->
            check Alcotest.int (name ^ ": one task per benchmark") 4 r.Obs.Engine.tasks)
          regions
      end)
    Experiments.Report.artefact_names

(* An empty selection renders every artefact, and every mean over no
   benchmarks is 0.0. *)
let test_empty_selection () =
  let opts = { (Experiments.Options.default ()) with Experiments.Options.benchmarks = [] } in
  check
    Alcotest.(list (pair int (float 0.0)))
    "means of nothing" [ (1, 0.0); (2, 0.0) ]
    (Experiments.Sweep.means opts [ 1; 2 ] (fun _ _ -> Alcotest.fail "no benchmark to compute"));
  let rendered =
    List.map
      (fun (name, a) -> (name, List.map Util.Table.render (Experiments.Report.tables_of opts a)))
      Experiments.Report.artefact_names
  in
  (* Tables whose cells after the one-word row label are all means. *)
  List.iter
    (fun name ->
      List.iter
        (fun text ->
          let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
          List.iteri
            (fun i line ->
              if i >= 3 then
                match String.split_on_char ' ' line |> List.filter (( <> ) "") with
                | _label :: cells ->
                  List.iter
                    (fun c ->
                      check (Alcotest.float 0.0) (name ^ " cell " ^ c) 0.0 (float_of_string c))
                    cells
                | [] -> ())
            lines)
        (List.assoc name rendered))
    [ "fig11"; "fig12"; "fig13"; "perf"; "divergence"; "scheduling" ];
  let limit = Experiments.Limit.compute opts in
  List.iter
    (fun v -> check (Alcotest.float 0.0) "limit mean" 0.0 v)
    Experiments.Limit.
      [
        limit.fixed_best; limit.ideal_all_lrf; limit.ideal_all_orf; limit.variable_orf_oracle;
        limit.variable_orf_realistic; limit.hw_flush_backward; limit.hw_keep_backward;
        limit.sw_past_backward; limit.sw_never_flush; limit.scheduling_ideal_8at3;
        limit.scheduling_real_5at5;
      ];
  List.iter
    (fun v ->
      check (Alcotest.float 0.0) (v.Experiments.Ablation.label ^ " mean") 0.0
        v.Experiments.Ablation.normalized_energy)
    (Experiments.Ablation.compute opts);
  let enc = Experiments.Encoding.compute opts in
  check (Alcotest.float 0.0) "encoding: mean ratio 0.0, saving 1.0" 1.0
    enc.Experiments.Encoding.rf_saving;
  check (Alcotest.float 0.0) "fig14 MRF share" 0.0 (Experiments.Energy_breakdown.mrf_share opts)

let test_options_jobs () =
  let o = Experiments.Options.default () in
  check Alcotest.int "default serial" 1 o.Experiments.Options.jobs;
  check Alcotest.int "explicit" 3 (Experiments.Options.with_jobs o 3).Experiments.Options.jobs;
  check Alcotest.int "0 = auto" (Util.Pool.default_jobs ())
    (Experiments.Options.with_jobs o 0).Experiments.Options.jobs;
  check Alcotest.int "negative clamps" 1
    (Experiments.Options.with_jobs o (-2)).Experiments.Options.jobs;
  (* The params fingerprint is precomputed and tracks with_params. *)
  check Alcotest.string "fingerprint precomputed"
    (Experiments.Options.fingerprint o.Experiments.Options.params)
    o.Experiments.Options.params_fp;
  let o' = Experiments.Options.with_params o Energy.Params.default in
  check Alcotest.string "with_params refreshes fingerprint"
    (Experiments.Options.fingerprint Energy.Params.default)
    o'.Experiments.Options.params_fp

let test_options_unknown_benchmark () =
  Alcotest.check_raises "unknown" (Invalid_argument "unknown benchmark \"nope\"") (fun () ->
      ignore (Experiments.Options.with_benchmarks (Experiments.Options.default ()) [ "nope" ]))

let suite =
  [
    Alcotest.test_case "fig13 shape" `Slow test_fig13_shape;
    Alcotest.test_case "fig13 optimum at 3" `Slow test_fig13_optimum_at_three;
    Alcotest.test_case "headline savings bands" `Slow test_headline_savings;
    Alcotest.test_case "fig14 MRF dominates" `Slow test_fig14_mrf_dominates;
    Alcotest.test_case "fig15 worst cases" `Slow test_fig15_worst_cases;
    Alcotest.test_case "fig2 read-once" `Slow test_fig2_read_once;
    Alcotest.test_case "perf: no penalty at 8" `Slow test_perf_no_penalty_at_8;
    Alcotest.test_case "encoding overhead" `Slow test_encoding_overhead;
    Alcotest.test_case "limit study ordering" `Slow test_limit_study_ordering;
    Alcotest.test_case "ablation ordering" `Slow test_ablation_ordering;
    Alcotest.test_case "divergence stability" `Slow test_divergence_stability;
    Alcotest.test_case "scheduling JIT best" `Slow test_scheduling_jit_best;
    Alcotest.test_case "variable ORF realistic loses" `Slow test_variable_orf_realistic_loses;
    Alcotest.test_case "pressure table" `Quick test_pressure_table;
    Alcotest.test_case "report tables exist" `Quick test_report_tables_exist;
    Alcotest.test_case "run_all parity jobs=1 vs jobs=4" `Slow test_run_all_parity;
    Alcotest.test_case "one region per artefact" `Slow test_one_region_per_artefact;
    Alcotest.test_case "empty selection" `Quick test_empty_selection;
    Alcotest.test_case "options jobs + fingerprint" `Quick test_options_jobs;
    Alcotest.test_case "options unknown benchmark" `Quick test_options_unknown_benchmark;
  ]
