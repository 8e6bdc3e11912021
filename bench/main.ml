(* Benchmark harness.

   Part 1 prints the reproduction itself: the same rows and series the
   paper's evaluation reports (every table and figure), computed over
   the full 36-benchmark suite.

   Part 2 times the regeneration of each artefact with Bechamel: one
   Test.make per paper table/figure (cold caches, a reduced workload
   subset so each sample stays sub-second) plus microbenchmarks of the
   pipeline stages (analysis, allocation, verification, traffic
   accounting, timing simulation).

   Part 3 times the full artefact regeneration serially and on the
   worker pool (--jobs N / -j N; default: one domain per recommended
   core), checks the two outputs are byte-identical, and re-emits
   everything machine-readably: the timings (BENCH_timings.json) plus a
   wall-clock + IPC record per subset benchmark and the
   serial-vs-parallel run_all comparison (BENCH_perf.json), so the
   performance trajectory can be tracked across PRs without scraping
   the text output.

   Part 4 sweeps the same regeneration across jobs in {1,2,4,8} under
   the Obs.Engine profiler and writes the wall-clock curve plus the
   exact overhead breakdown per setting (BENCH_engine.json), so the
   perf trajectory records not just *that* the pool scales badly but
   *where* each setting's wall x domains budget goes. *)

open Bechamel
open Toolkit

(* Worker-domain count for the fan-out comparison (Part 3) and the
   headline reproduction.  Not wired through Bechamel, so a plain argv
   scan suffices. *)
let jobs =
  let rec scan = function
    | ("--jobs" | "-j") :: v :: _ -> (try int_of_string v with Failure _ -> 0)
    | _ :: rest -> scan rest
    | [] -> 0
  in
  match scan (Array.to_list Sys.argv) with
  | n when n >= 1 -> n
  | _ -> Util.Pool.default_jobs ()

(* Where the cross-run history record lands (--history FILE to
   redirect, --no-history to skip — tests run the harness in temp
   trees that have no baselines/). *)
let history_path =
  let rec scan = function
    | "--history" :: v :: _ -> Some v
    | "--no-history" :: _ -> None
    | _ :: rest -> scan rest
    | [] -> Some "baselines/history.jsonl"
  in
  scan (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the paper's evaluation.                          *)

let report_options =
  Experiments.Options.with_jobs
    { (Experiments.Options.default ()) with Experiments.Options.warps = 8 }
    jobs

let print_reproduction () =
  print_endline "==================================================================";
  print_endline " Reproduction: every table and figure of the paper's evaluation";
  print_endline "==================================================================";
  print_newline ();
  Experiments.Report.run_all report_options

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timings.                                           *)

(* A representative cross-suite subset keeps each cold regeneration
   sample fast. *)
let bench_subset =
  [ "VectorAdd"; "MatrixMul"; "Mandelbrot"; "Reduction"; "cp"; "hotspot" ]

let bench_options () =
  Experiments.Options.with_benchmarks
    { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
    bench_subset

let artefact_tests =
  List.map
    (fun (name, artefact) ->
      Test.make ~name
        (Staged.stage (fun () ->
             Experiments.Report.clear_caches ();
             ignore (Experiments.Report.tables_of (bench_options ()) artefact))))
    Experiments.Report.artefact_names

let stage_tests =
  let kernel = lazy (Rfh.benchmark "MatrixMul") in
  let ctx = lazy (Alloc.Context.create (Lazy.force kernel)) in
  let config = Alloc.Config.make () in
  let placement = lazy (Alloc.Allocator.place config (Lazy.force ctx)) in
  [
    Test.make ~name:"analysis:context"
      (Staged.stage (fun () -> ignore (Alloc.Context.create (Lazy.force kernel))));
    Test.make ~name:"compiler:allocate"
      (Staged.stage (fun () -> ignore (Alloc.Allocator.run config (Lazy.force ctx))));
    Test.make ~name:"compiler:verify"
      (Staged.stage (fun () ->
           ignore (Alloc.Verify.check config (Lazy.force ctx) (Lazy.force placement))));
    Test.make ~name:"sim:traffic-sw"
      (Staged.stage (fun () ->
           ignore
             (Sim.Traffic.run ~warps:4 (Lazy.force ctx)
                (Sim.Traffic.Sw { config; placement = Lazy.force placement }))));
    Test.make ~name:"sim:traffic-hw"
      (Staged.stage (fun () ->
           ignore
             (Sim.Traffic.run ~warps:4 (Lazy.force ctx)
                (Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:3)))));
    Test.make ~name:"sim:perf-two-level"
      (Staged.stage (fun () ->
           ignore
             (Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300
                ~scheduler:(Sim.Perf.Two_level 8) ~policy:Sim.Perf.On_dependence
                (Lazy.force ctx))));
    Test.make ~name:"sim:perf-single-level"
      (Staged.stage (fun () ->
           ignore
             (Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300
                ~scheduler:Sim.Perf.Single_level ~policy:Sim.Perf.On_dependence
                (Lazy.force ctx))));
    Test.make ~name:"sim:perf-two-level-banked"
      (Staged.stage (fun () ->
           ignore
             (Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300 ~mrf_banks:4
                ~scheduler:(Sim.Perf.Two_level 8)
                ~policy:Sim.Perf.At_strand_boundaries (Lazy.force ctx))));
  ]

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:6 ~quota:(Time.second 2.0) ~kde:None ~sampling:(`Linear 1)
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"rfh" tests) in
  Analyze.all ols Instance.monotonic_clock raw

let estimate_rows results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

let print_results results =
  let rows = estimate_rows results in
  let t =
    Util.Table.create ~title:"Bechamel timings (monotonic clock per run)"
      ~columns:[ "Benchmark"; "Time per run" ]
  in
  List.iter
    (fun (name, ols) ->
      let cell =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) ->
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        | Some [] | None -> "n/a"
      in
      Util.Table.add_row t [ name; cell ])
    rows;
  Util.Table.print t

(* ------------------------------------------------------------------ *)
(* Part 3: machine-readable BENCH_*.json results.                      *)

let write_json path json =
  let oc = open_out path in
  Obs.Json.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let timings_json results =
  Obs.Json.Arr
    (List.filter_map
       (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (est :: _) ->
           Some (Obs.Json.Obj [ ("benchmark", Obs.Json.Str name); ("ns_per_run", Obs.Json.Num est) ])
         | Some [] | None -> None)
       (estimate_rows results))

(* Wall time, executed instructions and IPC of one two-level-scheduler
   timing simulation per subset benchmark. *)
let per_benchmark_perf_json () =
  Obs.Json.Arr
    (List.map
       (fun name ->
         let e = Option.get (Workloads.Registry.find name) in
         let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
         let t0 = Obs.Clock.now_ns () in
         let r =
           Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300 ~scheduler:(Sim.Perf.Two_level 8)
             ~policy:Sim.Perf.On_dependence ctx
         in
         let wall_s = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e3 in
         Obs.Json.Obj
           [
             ("benchmark", Obs.Json.Str name);
             ("wall_time_s", Obs.Json.Num wall_s);
             ("instructions", Obs.Json.int r.Sim.Perf.instructions);
             ("ipc", Obs.Json.Num r.Sim.Perf.ipc);
           ])
       bench_subset)

(* Serial vs. parallel regeneration of every artefact, cold caches both
   times, over the bench subset.  The rendered tables must match
   byte-for-byte — the pool's ordering contract — and the two wall
   clocks land in BENCH_perf.json so the speedup is tracked across
   PRs. *)
let timed_run_all ~jobs =
  Experiments.Report.clear_caches ();
  let opts = Experiments.Options.with_jobs (bench_options ()) jobs in
  let t0 = Obs.Clock.now_ns () in
  let rendered =
    List.concat_map
      (fun (_, a) -> List.map Util.Table.render (Experiments.Report.tables_of opts a))
      Experiments.Report.artefact_names
  in
  let wall_s = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e3 in
  (String.concat "\n" rendered, wall_s)

let run_all_comparison () =
  let serial_out, serial_s = timed_run_all ~jobs:1 in
  let parallel_out, parallel_s = timed_run_all ~jobs in
  let parity = String.equal serial_out parallel_out in
  Printf.printf
    "run_all (subset, cold caches): serial %.2fs, %d jobs %.2fs — %.2fx, output %s\n"
    serial_s jobs parallel_s
    (serial_s /. parallel_s)
    (if parity then "byte-identical" else "DIFFERS");
  if not parity then begin
    prerr_endline "bench: parallel run_all output differs from serial";
    exit 1
  end;
  Obs.Json.Obj
    [
      ("jobs", Obs.Json.int jobs);
      ("serial_s", Obs.Json.Num serial_s);
      ("parallel_s", Obs.Json.Num parallel_s);
      ("speedup", Obs.Json.Num (serial_s /. parallel_s));
      ("parity", Obs.Json.Bool parity);
    ]

(* ------------------------------------------------------------------ *)
(* Part 4: the jobs curve with the engine profiler on.                  *)

let engine_curve_jobs = [ 1; 2; 4; 8 ]

(* Engine shares of the widest run's wall x domains budget, plus the
   Part 4 warning as data: run_all losing to serial at jobs=2.  Both
   land in the history record so rfh trend can watch them drift. *)
let engine_history_summary reports =
  let jobs2_slower =
    match reports with
    | (base : Obs.Engine.report) :: rest ->
      List.exists
        (fun (r : Obs.Engine.report) ->
          r.Obs.Engine.jobs = 2 && r.Obs.Engine.wall_ns > 0
          && float_of_int base.Obs.Engine.wall_ns /. float_of_int r.Obs.Engine.wall_ns
             < 1.0)
        rest
    | [] -> false
  in
  let engine =
    match List.rev reports with
    | [] -> None
    | (widest : Obs.Engine.report) :: _ ->
      let agg = Obs.Engine.agg_categories widest in
      let budget =
        List.fold_left (fun acc (_, v) -> acc + v) 0 (Obs.Engine.cat_list agg)
      in
      if budget = 0 then None
      else
        let share ns = float_of_int ns /. float_of_int budget in
        Some
          {
            Obs.History.eng_useful = share agg.Obs.Engine.useful_ns;
            eng_spawn = share agg.Obs.Engine.spawn_ns;
            eng_idle = share agg.Obs.Engine.idle_ns;
          }
  in
  (* GC summary of the same widest window, when a capture ran: share
     of useful, allocation volume, pause tail (the histogram summary
     is in microseconds; history records nanoseconds). *)
  let gc =
    match List.rev reports with
    | (widest : Obs.Engine.report) :: _ when widest.Obs.Engine.gc <> None ->
      let mem =
        match widest.Obs.Engine.gc with
        | Some g -> Obs.Engine.gc_mem_totals g
        | None -> assert false
      in
      let p50, p99 =
        match Obs.Engine.gc_pause_summary widest with
        | Some h -> (h.Obs.Metrics.p50 *. 1e3, h.Obs.Metrics.p99 *. 1e3)
        | None -> (0.0, 0.0)
      in
      Some
        {
          Obs.History.hg_gc_share = Obs.Engine.gc_share widest;
          hg_minor_words = mem.Obs.Engine.mt_minor_words;
          hg_pause_p50_ns = p50;
          hg_pause_p99_ns = p99;
        }
    | _ -> None
  in
  (engine, gc, jobs2_slower)

let engine_curve () =
  let runs =
    List.map
      (fun j ->
        let out, report =
          Obs.Engine.profile ~label:"run_all" ~jobs:j (fun () ->
              fst (timed_run_all ~jobs:j))
        in
        (j, out, report))
      engine_curve_jobs
  in
  let reports = List.map (fun (_, _, r) -> r) runs in
  (* Same contract as Part 3: the engine recorder may not change a
     byte of the rendered tables, at any jobs setting. *)
  (match runs with
   | (_, out0, _) :: rest ->
     List.iter
       (fun (j, out, _) ->
         if not (String.equal out out0) then begin
           Printf.eprintf "bench: engine-profiled run_all at jobs=%d differs from jobs=1\n" j;
           exit 1
         end)
       rest
   | [] -> ());
  List.iter
    (fun (r : Obs.Engine.report) ->
      match Obs.Engine.check r with
      | [] -> ()
      | violations ->
        Printf.eprintf "bench: engine accounting invariants FAILED at jobs=%d:\n"
          r.Obs.Engine.jobs;
        List.iter (fun v -> prerr_endline ("  " ^ v)) violations;
        exit 1)
    reports;
  Util.Table.print (Obs.Engine.speedup_table reports);
  Util.Table.print (Obs.Engine.breakdown_table reports);
  (* A pool that loses to serial at jobs=2 means per-task cost has
     shrunk below the fan-out overhead (or workers are contending);
     surface it rather than leaving it buried in the JSON. *)
  (match reports with
   | (base : Obs.Engine.report) :: rest ->
     List.iter
       (fun (r : Obs.Engine.report) ->
         if r.Obs.Engine.jobs = 2 && r.Obs.Engine.wall_ns > 0 then begin
           let speedup =
             float_of_int base.Obs.Engine.wall_ns
             /. float_of_int r.Obs.Engine.wall_ns
           in
           if speedup < 1.0 then
             Printf.printf
               "WARNING: run_all at jobs=2 is SLOWER than serial (%.2fx); \
                pool overhead exceeds the per-task work\n"
               speedup
         end)
       rest
   | [] -> ());
  let base_wall = match reports with r :: _ -> r.Obs.Engine.wall_ns | [] -> 0 in
  ( Obs.Json.Arr
      (List.map
         (fun (r : Obs.Engine.report) ->
           let agg = Obs.Engine.agg_categories r in
           let budget =
             List.fold_left
               (fun acc (reg : Obs.Engine.region) ->
                 acc + (reg.Obs.Engine.wall_ns * reg.Obs.Engine.domains))
               0 r.Obs.Engine.regions
           in
           Obs.Json.Obj
             [
               ("jobs", Obs.Json.int r.Obs.Engine.jobs);
               ("wall_s", Obs.Json.Num (float_of_int r.Obs.Engine.wall_ns /. 1e9));
               ( "speedup",
                 Obs.Json.Num
                   (if r.Obs.Engine.wall_ns = 0 then 1.0
                    else float_of_int base_wall /. float_of_int r.Obs.Engine.wall_ns) );
               ("budget_ns", Obs.Json.int budget);
               ( "breakdown_ns",
                 Obs.Json.Obj
                   (List.map
                      (fun (name, v) -> (name, Obs.Json.int v))
                      (Obs.Engine.cat_list agg)) );
               ("gc_ns", Obs.Json.int agg.Obs.Engine.gc_ns);
               ("gc_share", Obs.Json.Num (Obs.Engine.gc_share r));
               ("report", Obs.Engine.to_json r);
             ])
         reports),
    reports )

let () =
  let wall0 = Obs.Clock.now_ns () in
  print_reproduction ();
  print_endline "==================================================================";
  print_endline " Bechamel: cold-regeneration cost per artefact + pipeline stages";
  Printf.printf " (artefact timings use the %d-benchmark subset: %s)\n"
    (List.length bench_subset)
    (String.concat ", " bench_subset);
  print_endline "==================================================================";
  print_newline ();
  let results = benchmark (artefact_tests @ stage_tests) in
  print_results results;
  let run_all = run_all_comparison () in
  write_json "BENCH_timings.json" (timings_json results);
  write_json "BENCH_perf.json"
    (Obs.Json.Obj
       [ ("benchmarks", per_benchmark_perf_json ()); ("run_all", run_all) ]);
  print_endline "==================================================================";
  print_endline " Engine profile: run_all wall-clock curve across jobs settings";
  print_endline "==================================================================";
  print_newline ();
  let engine_json, engine_reports = engine_curve () in
  write_json "BENCH_engine.json" engine_json;
  (* Full run manifest + HTML report over the headline options, so every
     bench run leaves the same machine-readable record the regression
     gate consumes. *)
  let manifest = Experiments.Run_manifest.collect report_options in
  write_json "BENCH_manifest.json" (Obs.Manifest.to_json manifest);
  Obs.Html_report.(write_page ~path:"BENCH_report.html" (render manifest));
  Printf.printf "wrote BENCH_report.html\n";
  (* One history record merging everything this run measured; the
     append is timed so the overhead claim in docs/observability.md
     stays checkable on every run. *)
  let engine, gc, jobs2_slower = engine_history_summary engine_reports in
  let wall_s = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) wall0) /. 1e3 in
  let record =
    Obs.History.of_manifest ?engine ?gc ~jobs2_slower ~source:"bench" ~wall_s
      manifest
  in
  write_json "BENCH_history.json" (Obs.History.to_json record);
  match history_path with
  | None -> ()
  | Some path ->
    let t0 = Obs.Clock.now_ns () in
    Obs.History.append ~path record;
    let append_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) in
    Printf.printf "appended history record -> %s (%.3f ms, %.5f%% of %.1f s wall)\n"
      path append_ms
      (100.0 *. append_ms /. 1e3 /. wall_s)
      wall_s
