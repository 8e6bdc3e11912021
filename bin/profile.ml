(* profile: the full pipeline under phase spans and the audit recorder
   — where time and register-file traffic go. *)

open Cmdliner

let default_benchmarks = [ "VectorAdd"; "MatrixMul"; "Mandelbrot"; "Reduction"; "cp"; "hotspot" ]

(* One benchmark through analysis, allocation, verification, traffic,
   energy and timing: its result row and its traffic counts. *)
let pipeline ~warps ~seed ~entries ~lrf (e : Workloads.Registry.entry) =
  let name = e.Workloads.Registry.name in
  let params = Energy.Params.default in
  Obs.Span.with_span ("benchmark:" ^ name) (fun () ->
      let k = Lazy.force e.Workloads.Registry.kernel in
      let ctx = Alloc.Context.create k in
      let config = Alloc.Config.make ~orf_entries:entries ~lrf ~params () in
      let placement, stats = Alloc.Allocator.run config ctx in
      (match Obs.Span.with_span "verify" (fun () -> Alloc.Verify.check config ctx placement) with
       | Ok () -> ()
       | Error errs ->
         Printf.eprintf "%s: PLACEMENT FAILED VERIFICATION:\n  %s\n" name
           (String.concat "\n  " errs));
      let sw = Sim.Traffic.run ~warps ~seed ctx (Sim.Traffic.Sw { config; placement }) in
      let baseline = Sim.Traffic.run ~warps ~seed ctx Sim.Traffic.Baseline in
      let energy (r : Sim.Traffic.result) =
        (Energy.Counts.energy params ~orf_entries:entries r.Sim.Traffic.counts).Energy.Counts.total
      in
      let e_sw, e_base = Obs.Span.with_span "energy" (fun () -> (energy sw, energy baseline)) in
      let perf =
        Sim.Perf.run ~warps ~seed ~scheduler:(Sim.Perf.Two_level 8) ~policy:Sim.Perf.On_dependence ctx
      in
      ( [
          name;
          string_of_int (Strand.Partition.num_strands ctx.Alloc.Context.partition);
          string_of_int stats.Alloc.Allocator.lrf_allocated;
          string_of_int stats.Alloc.Allocator.orf_allocated;
          Printf.sprintf "%.3f" (Util.Stats.ratio e_sw e_base);
          Printf.sprintf "%.2f" perf.Sim.Perf.ipc;
          string_of_int sw.Sim.Traffic.dynamic_instrs;
          string_of_int sw.Sim.Traffic.desched_events;
        ],
        [ sw.Sim.Traffic.counts; baseline.Sim.Traffic.counts ] ))

let results_table rows =
  let t =
    Util.Table.create ~title:"Profile: pipeline results"
      ~columns:
        [ "Benchmark"; "Strands"; "LRF allocs"; "ORF allocs"; "Norm energy"; "IPC"; "Dyn instrs";
          "Descheds" ]
  in
  List.iter (Util.Table.add_row t) rows;
  t

let energy_level = function
  | Obs.Audit.Lrf -> Energy.Model.Lrf
  | Obs.Audit.Orf -> Energy.Model.Orf
  | Obs.Audit.Mrf -> Energy.Model.Mrf
  | Obs.Audit.Rfc -> Energy.Model.Rfc

let cmd =
  let doc =
    "Run benchmarks through the full pipeline (analysis, strand partitioning, allocation, \
     verification, traffic accounting, timing simulation, energy model) with phase spans and \
     the audit sink enabled; print per-phase timings and counter totals.  $(b,--trace-out) \
     additionally writes a Chrome trace-event JSON file; $(b,--audit-out) writes the \
     structured audit log as JSONL."
  in
  let trace_out =
    Cli.trace_out "Write phase spans as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)."
  in
  let audit_out = Cli.file_flag "audit-out" "Write the allocator/simulator audit log as JSON Lines." in
  let run (opts : Experiments.Options.t) entries lrf trace_out audit_out manifest_out report_out
      verbose =
    let check, report = Cli.self_checks () in
    Obs.Metrics.reset ();
    let events, close_audit =
      Cli.recording (module Obs.Audit)
        ~also:(if verbose then [ Obs.Audit.printer_sink Format.err_formatter ] else [])
        audit_out
    in
    (* The per-phase table reads the spans, with or without --trace-out. *)
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    let tables, trace_line =
      Cli.traced ~process_name:"rfh profile" trace_out (fun () ->
          let wall_start = Obs.Clock.now_ns () in
          (* The per-benchmark pipeline fans out over --jobs domains;
             rows come back in selection order and the audit
             cross-check's expected write totals are summed serially. *)
          let rows =
            Util.Pool.parallel_map ~jobs:opts.Experiments.Options.jobs ~label:"profile.benchmark"
              (pipeline ~warps:opts.warps ~seed:opts.seed ~entries ~lrf)
              opts.benchmarks
          in
          let expected = Energy.Counts.create () in
          List.iter (fun (_, counts) -> List.iter (Energy.Counts.merge_into ~dst:expected) counts) rows;
          let wall_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) wall_start) in
          (* Place events per level must reproduce the Energy.Counts
             write totals of the runs above. *)
          let audit, checks =
            Obs.Audit.summary_table (events ())
              ~expected:(fun level -> Energy.Counts.writes expected (energy_level level))
          in
          List.iter
            (fun (level, ok) ->
              check ("place." ^ Obs.Audit.level_name level ^ " events = Energy.Counts writes") ok)
            checks;
          ( [ results_table (List.map fst rows); Obs.Span.totals_table ~wall_ms;
              Experiments.Report.metrics_table (); audit ],
            Cli.no_rows ))
    in
    let audit_line =
      Option.fold ~none:[]
        ~some:(fun path -> [ Cli.textf "audit: %d events -> %s\n" (List.length (events ())) path ])
        audit_out
    in
    close_audit ();
    let saved, run_report = Cli.collected ~entries ~lrf opts ~manifest_out ~report_out in
    (* The always-on memo counters make hit rates visible without
       engine profiling; read after the manifest collection so it is
       counted. *)
    let memo = Obs.Engine.memo_stats_table (Util.Eprof.memo_stats ()) in
    Cli.emit ~title:"rfh profile" ?report_out
      (List.map (fun t -> Cli.Table t) tables
      @ trace_line @ audit_line @ saved @ [ Cli.Table memo ] @ run_report);
    report ~failed:"profile: audit/Energy.Counts write totals disagree" ()
  in
  Cmd.v (Cmd.info "profile" ~doc ~exits:Cli.exits)
    Term.(
      const run $ Cli.options ~default_benchmarks () $ Cli.entries $ Cli.lrf $ trace_out $ audit_out
      $ Cli.manifest_out $ Cli.report_out () $ Cli.verbose)
