(* rfh — command-line driver regenerating every table and figure of the
   paper's evaluation, plus kernel/placement inspection commands. *)

open Cmdliner

(* Captured at startup so --history-out records the whole invocation's
   wall time, not just the manifest collection's. *)
let start_ns = Obs.Clock.now_ns ()

(* Exit-code contract shared by every command: 0 = success, 1 = a
   self-check or gate failed, 2 = an input is missing or unknown.  An
   unknown benchmark name or artefact target is a missing input. *)
let die_usage msg = prerr_endline msg; exit 2

let find_bench name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None ->
    die_usage
      (Printf.sprintf "unknown benchmark: %s (see 'rfh kernels' for the list)" name)

(* 'all' or one artefact name, as the engine command takes it. *)
let artefacts_of_target target =
  if target = "all" then List.map snd Experiments.Report.artefact_names
  else
    match List.assoc_opt target Experiments.Report.artefact_names with
    | Some a -> [ a ]
    | None ->
      die_usage
        ("unknown target: " ^ target ^ " (expected 'all' or one of "
        ^ String.concat ", " (List.map fst Experiments.Report.artefact_names)
        ^ ")")

let opts_of ~warps ~seed ~benchmarks ~jobs =
  let base = { (Experiments.Options.default ()) with Experiments.Options.warps; seed } in
  let base = Experiments.Options.with_jobs base jobs in
  match benchmarks with
  | [] -> base
  | names -> { base with Experiments.Options.benchmarks = List.map find_bench names }

(* A numeric flag outside its range is a bad input: exit 2 naming the
   flag and the value before any command runs with it. *)
let in_range flag ~lo ?hi arg =
  let check v =
    if v < lo || Option.fold ~none:false ~some:(fun hi -> v > hi) hi then
      die_usage
        (Printf.sprintf "rfh: %s %d is out of range (expected %s)" flag v
           (match hi with
           | Some hi -> Printf.sprintf "%d-%d" lo hi
           | None -> Printf.sprintf "at least %d" lo))
    else v
  in
  Term.(const check $ arg)

let warps_opt default =
  let doc = "Machine-resident warps to simulate per kernel." in
  in_range "--warps" ~lo:1 Arg.(value & opt int default & info [ "warps" ] ~docv:"N" ~doc)

let warps_arg = warps_opt 32

let seed_arg =
  let doc = "Deterministic seed for data-dependent branch behaviour." in
  Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED" ~doc)

let benchmarks_arg =
  let doc = "Restrict to the named benchmarks (default: all 36)." in
  Arg.(value & opt (list string) [] & info [ "benchmarks"; "b" ] ~docv:"NAMES" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the per-benchmark fan-out.  1 (the default) is the exact serial \
     path; 0 means one per recommended core.  Output is byte-identical at any setting."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of aligned text tables." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let verbose_arg =
  let doc = "Print allocator/simulator audit events to stderr (human-readable)." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let metrics_arg =
  let doc = "Append a metrics-registry summary after the command's output." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let manifest_out_arg =
  let doc = "Write a machine-readable run manifest (schema-versioned JSON) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "manifest-out" ] ~docv:"FILE" ~doc)

let report_out_arg =
  let doc = "Write a self-contained HTML run report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)

let history_out_arg =
  let doc =
    "Append one cross-run history record (JSONL, see $(b,rfh trend)) to $(docv).  The \
     record carries per-benchmark IPC/energy/stall shares plus the host fingerprint and \
     the invocation's wall time."
  in
  Arg.(value & opt (some string) None & info [ "history-out" ] ~docv:"FILE" ~doc)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Every output file goes through here: create its directory, run
   [write path], and turn an I/O failure into exit 1. *)
let write_or_die path write =
  try
    mkdirs (Filename.dirname path);
    write path
  with Sys_error msg -> prerr_endline ("cannot write " ^ msg); exit 1

let write_json path j =
  write_or_die path (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Obs.Json.to_channel oc j;
          output_char oc '\n'))

let write_html path html = write_or_die path (fun path -> Obs.Html_report.write_page ~path html)

(* Self-check collector for the cross-checking commands: [check] records
   a failed invariant; [report] prints them all and exits 1, or prints
   [passed]. *)
let self_checks () =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  let report ~failed ?passed () =
    match List.rev !failures with
    | [] -> Option.iter print_endline passed
    | fs ->
      prerr_endline failed;
      List.iter (fun f -> prerr_endline ("  " ^ f)) fs;
      exit 1
  in
  (check, report)

let write_manifest_outputs ?compare m ~manifest_out ~report_out =
  Option.iter
    (fun path ->
      write_or_die path (fun path -> Obs.Manifest.write_file ~path m);
      Printf.printf "manifest -> %s\n" path)
    manifest_out;
  Option.iter
    (fun path ->
      write_html path (Obs.Html_report.render ?compare m);
      Printf.printf "report -> %s\n" path)
    report_out

let elapsed_wall_s () =
  Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) start_ns) /. 1000.0

let append_history m path =
  write_or_die path (fun path ->
      Obs.History.append ~path
        (Obs.History.of_manifest ~source:"rfh" ~wall_s:(elapsed_wall_s ()) m));
  Printf.printf "history -> %s\n" path

(* --manifest-out / --report-out / --history-out ride on any figure
   command: the manifest collection runs after the command's own output
   (it installs its own audit sink, so it must not race the
   command's). *)
let collect_outputs ?entries ?lrf opts ~manifest_out ~report_out ~history_out =
  if manifest_out <> None || report_out <> None || history_out <> None then begin
    let m = Experiments.Run_manifest.collect ?entries ?lrf opts in
    write_manifest_outputs m ~manifest_out ~report_out;
    Option.iter (append_history m) history_out
  end

(* [-v] is an alias for installing the human-readable audit printer:
   allocator and simulator decisions flow through Obs.Audit, not a
   logging framework, so nothing is installed (or paid for) without
   it. *)
let setup_verbosity verbose =
  if verbose then Obs.Audit.set_sink (Obs.Audit.printer_sink Format.err_formatter)

let print_metrics_if metrics =
  if metrics then Util.Table.print (Experiments.Report.metrics_table ())

let print_tables csv tables =
  List.iter
    (fun t ->
      if csv then (print_endline (Util.Table.csv t); print_newline ())
      else Util.Table.print t)
    tables

let artefact_cmd (name, artefact) =
  let doc =
    match name with
    | "fig2" -> "Register-value usage patterns per suite (Figure 2)."
    | "fig11" -> "Two-level read/write breakdown, HW vs SW (Figure 11)."
    | "fig12" -> "Three-level read/write breakdown, HW vs SW (Figure 12)."
    | "fig13" -> "Normalized energy vs entries for every organisation (Figure 13)."
    | "fig14" -> "Energy breakdown of the most efficient design (Figure 14)."
    | "fig15" -> "Per-benchmark normalized energy (Figure 15)."
    | "perf" -> "Two-level warp scheduler IPC study (Sec. 6)."
    | "encoding" -> "Instruction-encoding overhead (Sec. 6.5)."
    | "limit" -> "Register-hierarchy limit study (Sec. 7)."
    | "ablation" -> "Per-optimization allocator ablation (Secs. 4.3/4.4/6.3)."
    | "divergence" -> "SIMT divergence sensitivity of the energy result (extension)."
    | "pressure" -> "Register pressure and MRF occupancy per benchmark."
    | "scheduling" -> "Real rescheduling/unrolling passes re-measured (extension)."
    | "tables" -> "Echo the configuration tables 2-4."
    | _ -> "Experiment."
  in
  let run warps seed benchmarks jobs csv metrics manifest_out report_out history_out =
    let opts = opts_of ~warps ~seed ~benchmarks ~jobs in
    print_tables csv (Experiments.Report.tables_of opts artefact);
    print_metrics_if metrics;
    collect_outputs opts ~manifest_out ~report_out ~history_out
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ warps_arg $ seed_arg $ benchmarks_arg $ jobs_arg $ csv_arg $ metrics_arg
      $ manifest_out_arg $ report_out_arg $ history_out_arg)

let all_cmd =
  let doc = "Regenerate every table and figure." in
  let run warps seed benchmarks jobs csv metrics manifest_out report_out history_out =
    let opts = opts_of ~warps ~seed ~benchmarks ~jobs in
    List.iter
      (fun (_, a) -> print_tables csv (Experiments.Report.tables_of opts a))
      Experiments.Report.artefact_names;
    print_metrics_if metrics;
    collect_outputs opts ~manifest_out ~report_out ~history_out
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ warps_arg $ seed_arg $ benchmarks_arg $ jobs_arg $ csv_arg $ metrics_arg
      $ manifest_out_arg $ report_out_arg $ history_out_arg)

let kernels_cmd =
  let doc = "List the benchmarks, or print one kernel's PTX-like code." in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark to print.")
  in
  let run = function
    | None ->
      let t =
        Util.Table.create ~title:"Benchmarks (paper Table 1)"
          ~columns:[ "Name"; "Suite"; "Kernels"; "Static instrs"; "Blocks"; "Description" ]
      in
      List.iter
        (fun (e : Workloads.Registry.entry) ->
          let ks = Lazy.force e.Workloads.Registry.kernels in
          let sum f = List.fold_left (fun acc k -> acc + f k) 0 ks in
          Util.Table.add_row t
            [
              e.Workloads.Registry.name;
              Workloads.Suite.name e.Workloads.Registry.suite;
              string_of_int (List.length ks);
              string_of_int (sum Ir.Kernel.instr_count);
              string_of_int (sum Ir.Kernel.block_count);
              e.Workloads.Registry.description;
            ])
        (Workloads.Registry.all ());
      Util.Table.print t
    | Some name ->
      print_string (Ir.Kernel.to_string (Lazy.force (find_bench name).Workloads.Registry.kernel))
  in
  Cmd.v (Cmd.info "kernels" ~doc) Term.(const run $ name_arg)

let lrf_conv =
  let parse = function
    | "none" -> Ok Alloc.Config.No_lrf
    | "unified" -> Ok Alloc.Config.Unified
    | "split" -> Ok Alloc.Config.Split
    | s -> Error (`Msg (Printf.sprintf "unknown LRF mode %S (none|unified|split)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with Alloc.Config.No_lrf -> "none" | Alloc.Config.Unified -> "unified" | Alloc.Config.Split -> "split")
  in
  Arg.conv (parse, print)

let bench_name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark name.")

let entries_arg =
  in_range "--entries" ~lo:1 ~hi:Energy.Params.max_orf_entries
    Arg.(value & opt int 3 & info [ "entries" ] ~docv:"N" ~doc:"ORF entries per thread (1-8).")

let lrf_arg =
  Arg.(value & opt lrf_conv Alloc.Config.Split & info [ "lrf" ] ~docv:"MODE" ~doc:"LRF mode.")

(* The columns every placement listing (allocate, compile, explain)
   starts with: strand, a '*' on a strand's first instruction, and the
   destination and source levels. *)
let placement_cols ctx placement (i : Ir.Instr.t) =
  let part = ctx.Alloc.Context.partition and id = i.Ir.Instr.id in
  let dst =
    match Alloc.Placement.dest placement ~instr:id with
    | None -> "-"
    | Some d ->
      String.concat ""
        [
          (match d.Alloc.Placement.to_lrf with Some bk -> Printf.sprintf "LRF[%d] " bk | None -> "");
          (match d.Alloc.Placement.to_orf with Some en -> Printf.sprintf "ORF[%d] " en | None -> "");
          (if d.Alloc.Placement.to_mrf then "MRF" else "");
        ]
  in
  let srcs =
    List.mapi
      (fun pos _ -> Alloc.Placement.level_name (Alloc.Placement.src placement ~instr:id ~pos))
      i.Ir.Instr.srcs
    |> String.concat ","
  in
  ( Strand.Partition.strand_of_instr part id,
    (if Strand.Partition.starts_strand part id then "*" else " "),
    dst,
    srcs )

let allocate_cmd =
  let doc = "Run the allocator on one benchmark and print the operand placements." in
  let run name entries lrf verbose =
    setup_verbosity verbose;
    let e = find_bench name in
    let k = Lazy.force e.Workloads.Registry.kernel in
    let ctx = Alloc.Context.create k in
    let config = Alloc.Config.make ~orf_entries:entries ~lrf () in
    let placement, stats = Alloc.Allocator.run config ctx in
    (match Alloc.Verify.check config ctx placement with
     | Ok () -> ()
     | Error errs ->
       prerr_endline "PLACEMENT FAILED VERIFICATION:";
       List.iter prerr_endline errs);
    Printf.printf "%s: %d strands; %d write units, %d read units; %d LRF + %d ORF allocations (%d partial)\n\n"
      e.Workloads.Registry.name
      (Strand.Partition.num_strands ctx.Alloc.Context.partition)
      stats.Alloc.Allocator.write_units stats.Alloc.Allocator.read_units
      stats.Alloc.Allocator.lrf_allocated stats.Alloc.Allocator.orf_allocated
      stats.Alloc.Allocator.partial_allocated;
    Ir.Kernel.iter_instrs k (fun _ i ->
        let strand, boundary, dst, srcs = placement_cols ctx placement i in
        let fills =
          Alloc.Placement.fills_of placement ~instr:i.Ir.Instr.id
          |> List.map (fun (p, en) -> Printf.sprintf "fill(slot %d -> ORF[%d])" p en)
          |> String.concat " "
        in
        Printf.printf "s%-3d%s %-40s dst: %-18s srcs: %-24s %s\n" strand boundary
          (Ir.Instr.to_string i) dst srcs fills)
  in
  Cmd.v (Cmd.info "allocate" ~doc)
    Term.(const run $ bench_name_arg $ entries_arg $ lrf_arg $ verbose_arg)

let selfcheck_cmd =
  let doc =
    "Run the allocator and verifier over every benchmark and hierarchy configuration."
  in
  let run () =
    let configs =
      List.concat_map
        (fun entries ->
          List.map
            (fun lrf -> Alloc.Config.make ~orf_entries:entries ~lrf ())
            [ Alloc.Config.No_lrf; Alloc.Config.Unified; Alloc.Config.Split ])
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    in
    let checked = ref 0 in
    let failed = ref 0 in
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        List.iter
          (fun kernel ->
            let ctx = Alloc.Context.create kernel in
            List.iter
              (fun config ->
                incr checked;
                let placement = Alloc.Allocator.place config ctx in
                match Alloc.Verify.check config ctx placement with
                | Ok () -> ()
                | Error errs ->
                  incr failed;
                  Printf.printf "FAIL %s/%s under %s:\n  %s\n" e.Workloads.Registry.name
                    kernel.Ir.Kernel.name
                    (Format.asprintf "%a" Alloc.Config.pp config)
                    (String.concat "\n  " errs))
              configs)
          (Lazy.force e.Workloads.Registry.kernels))
      (Workloads.Registry.all ());
    Printf.printf "selfcheck: %d placements verified, %d failures\n" !checked !failed;
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "selfcheck" ~doc) Term.(const run $ const ())

let trace_cmd =
  let doc =
    "Capture a benchmark's execution trace (Sec. 5.1 methodology): dynamic block sequences \
     per warp plus the control-flow-edge frequency profile."
  in
  let run name warps seed =
    let e = find_bench name in
    let k = Lazy.force e.Workloads.Registry.kernel in
    let trace = Sim.Trace.capture ~warps ~seed k in
    print_string (Sim.Trace.to_string trace);
    print_newline ();
    let t =
      Util.Table.create ~title:"Control-flow edge frequencies"
        ~columns:[ "Edge"; "Executions" ]
    in
    List.iter
      (fun ((a, b), n) ->
        let from_ = if a < 0 then "entry" else Printf.sprintf "BB%d" a in
        Util.Table.add_row t [ Printf.sprintf "%s -> BB%d" from_ b; string_of_int n ])
      (Sim.Trace.edge_profile trace);
    Util.Table.print t
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ bench_name_arg $ warps_arg $ seed_arg)

let compile_cmd =
  let doc =
    "Compile a PTX-flavoured assembly file (see Ir.Asm) onto the hierarchy: print strands, \
     operand placements and the measured energy saving."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source file.")
  in
  let run file entries lrf warps seed verbose =
    setup_verbosity verbose;
    let ic = open_in file in
    let len = in_channel_length ic in
    let source = really_input_string ic len in
    close_in ic;
    match Ir.Asm.parse ~name:(Filename.remove_extension (Filename.basename file)) source with
    | Error msg -> die_usage ("parse error: " ^ msg)
    | Ok kernel ->
      let context = Alloc.Context.create kernel in
      let config = Alloc.Config.make ~orf_entries:entries ~lrf () in
      let placement, stats = Alloc.Allocator.run config context in
      (match Alloc.Verify.check config context placement with
       | Ok () -> ()
       | Error errs ->
         prerr_endline "PLACEMENT FAILED VERIFICATION:";
         List.iter prerr_endline errs;
         exit 1);
      Ir.Kernel.iter_instrs kernel (fun _ i ->
          let strand, boundary, dst, srcs = placement_cols context placement i in
          Printf.printf "s%-3d%s %-40s dst: %-18s srcs: %s\n" strand boundary
            (Ir.Instr.to_string i) dst srcs);
      let m = Rfh.measure ~warps ~seed { Rfh.context; config; placement; stats } in
      Printf.printf "\nnormalized register-file energy: %.3f (%.1f%% saved)\n"
        m.Rfh.normalized_energy m.Rfh.savings_percent
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ file_arg $ entries_arg $ lrf_arg $ warps_arg $ seed_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* profile: run the full pipeline under spans + audit and report where
   time and register-file traffic go.                                  *)

let profile_default_benchmarks =
  [ "VectorAdd"; "MatrixMul"; "Mandelbrot"; "Reduction"; "cp"; "hotspot" ]

let profile_cmd =
  let doc =
    "Run benchmarks through the full pipeline (analysis, strand partitioning, allocation, \
     verification, traffic accounting, timing simulation, energy model) with phase spans and \
     the audit sink enabled; print per-phase timings and counter totals.  $(b,--trace-out) \
     additionally writes a Chrome trace-event JSON file; $(b,--audit-out) writes the \
     structured audit log as JSONL."
  in
  let trace_out_arg =
    let doc = "Write phase spans as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let audit_out_arg =
    let doc = "Write the allocator/simulator audit log as JSON Lines." in
    Arg.(value & opt (some string) None & info [ "audit-out" ] ~docv:"FILE" ~doc)
  in
  let run warps seed benchmarks jobs entries lrf trace_out audit_out manifest_out report_out
      verbose =
    let names = if benchmarks = [] then profile_default_benchmarks else benchmarks in
    let selected = List.map find_bench names in
    (* Recording setup: spans on, metrics zeroed, audit tee of a
       tallying sink + optional JSONL writer + optional -v printer. *)
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    Obs.Metrics.reset ();
    let place_tally = Array.make 4 0 in
    let level_idx = function
      | Obs.Audit.Lrf -> 0 | Obs.Audit.Orf -> 1 | Obs.Audit.Mrf -> 2 | Obs.Audit.Rfc -> 3
    in
    let event_count = ref 0 in
    let alloc_events = ref 0 in
    let desched_tally = ref 0 in
    let evict_tally = ref 0 in
    let tally ev =
      incr event_count;
      match ev with
      | Obs.Audit.Place { level; _ } ->
        place_tally.(level_idx level) <- place_tally.(level_idx level) + 1
      | Obs.Audit.Alloc _ -> incr alloc_events
      | Obs.Audit.Desched _ -> incr desched_tally
      | Obs.Audit.Evict _ -> incr evict_tally
      | Obs.Audit.Fill _ | Obs.Audit.Strand_boundary _ -> ()
    in
    let audit_oc = Option.map (fun path -> write_or_die path open_out) audit_out in
    let sinks =
      [ tally ]
      @ (match audit_oc with Some oc -> [ Obs.Audit.jsonl_sink oc ] | None -> [])
      @ (if verbose then [ Obs.Audit.printer_sink Format.err_formatter ] else [])
    in
    Obs.Audit.set_sink (Obs.Audit.tee sinks);
    (* Expected write totals, accumulated from every traffic run so the
       audit log can be cross-checked against Energy.Counts. *)
    let expected = Energy.Counts.create () in
    let params = Energy.Params.default in
    let wall_start = Obs.Clock.now_ns () in
    (* The per-benchmark pipeline fans out over [--jobs] domains; rows
       come back in selection order and the Energy.Counts accumulation
       for the audit cross-check happens serially afterwards. *)
    let rows =
      Util.Pool.parallel_map ~jobs ~label:"profile.benchmark"
        (fun (e : Workloads.Registry.entry) ->
          let name = e.Workloads.Registry.name in
          Obs.Span.with_span ("benchmark:" ^ name) (fun () ->
              let k = Lazy.force e.Workloads.Registry.kernel in
              let ctx = Alloc.Context.create k in
              let config = Alloc.Config.make ~orf_entries:entries ~lrf ~params () in
              let placement, stats = Alloc.Allocator.run config ctx in
              (match
                 Obs.Span.with_span "verify" (fun () -> Alloc.Verify.check config ctx placement)
               with
               | Ok () -> ()
               | Error errs ->
                 Printf.eprintf "%s: PLACEMENT FAILED VERIFICATION:\n  %s\n" name
                   (String.concat "\n  " errs));
              let sw =
                Sim.Traffic.run ~warps ~seed ctx (Sim.Traffic.Sw { config; placement })
              in
              let baseline = Sim.Traffic.run ~warps ~seed ctx Sim.Traffic.Baseline in
              let e_sw, e_base =
                Obs.Span.with_span "energy" (fun () ->
                    ( (Energy.Counts.energy params ~orf_entries:entries sw.Sim.Traffic.counts)
                        .Energy.Counts.total,
                      (Energy.Counts.energy params ~orf_entries:entries
                         baseline.Sim.Traffic.counts)
                        .Energy.Counts.total ))
              in
              let perf =
                Sim.Perf.run ~warps ~seed ~scheduler:(Sim.Perf.Two_level 8)
                  ~policy:Sim.Perf.On_dependence ctx
              in
              ( ( name,
                  Strand.Partition.num_strands ctx.Alloc.Context.partition,
                  stats,
                  Util.Stats.ratio e_sw e_base,
                  perf.Sim.Perf.ipc,
                  sw.Sim.Traffic.dynamic_instrs,
                  sw.Sim.Traffic.desched_events ),
                (sw.Sim.Traffic.counts, baseline.Sim.Traffic.counts) )))
        selected
    in
    List.iter
      (fun (_, (sw_counts, base_counts)) ->
        Energy.Counts.merge_into ~dst:expected sw_counts;
        Energy.Counts.merge_into ~dst:expected base_counts)
      rows;
    let results = List.map fst rows in
    let wall_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) wall_start) in
    (* Per-benchmark results. *)
    let t =
      Util.Table.create ~title:"Profile: pipeline results"
        ~columns:
          [ "Benchmark"; "Strands"; "LRF allocs"; "ORF allocs"; "Norm energy"; "IPC";
            "Dyn instrs"; "Descheds" ]
    in
    List.iter
      (fun (name, strands, stats, ratio, ipc, dyn, desched) ->
        Util.Table.add_row t
          [
            name;
            string_of_int strands;
            string_of_int stats.Alloc.Allocator.lrf_allocated;
            string_of_int stats.Alloc.Allocator.orf_allocated;
            Printf.sprintf "%.3f" ratio;
            Printf.sprintf "%.2f" ipc;
            string_of_int dyn;
            string_of_int desched;
          ])
      results;
    Util.Table.print t;
    (* Per-phase timing. *)
    let pt =
      Util.Table.create ~title:"Profile: per-phase time (inclusive)"
        ~columns:[ "Phase"; "Calls"; "Total ms"; "% of wall" ]
    in
    List.iter
      (fun (phase, (calls, total_ms)) ->
        Util.Table.add_row pt
          [
            phase;
            string_of_int calls;
            Printf.sprintf "%.3f" total_ms;
            Printf.sprintf "%.1f" (Util.Stats.percent total_ms wall_ms);
          ])
      (Obs.Span.totals ());
    Util.Table.print pt;
    Util.Table.print (Experiments.Report.metrics_table ());
    (* Audit cross-check: Place events per level must reproduce the
       Energy.Counts write totals of the runs above. *)
    let expected_of level = Energy.Counts.writes expected level in
    let audit_summary =
      Util.Table.create ~title:"Audit log summary"
        ~columns:[ "Events"; "Count"; "Cross-check (Energy.Counts writes)" ]
    in
    let check, report = self_checks () in
    let cross_check level name idx =
      let ok = place_tally.(idx) = expected_of level in
      check ("place." ^ name ^ " events = Energy.Counts writes") ok;
      Util.Table.add_row audit_summary
        [
          "place." ^ name;
          string_of_int place_tally.(idx);
          Printf.sprintf "%d (%s)" (expected_of level) (if ok then "ok" else "MISMATCH");
        ]
    in
    cross_check Energy.Model.Lrf "lrf" 0;
    cross_check Energy.Model.Orf "orf" 1;
    cross_check Energy.Model.Mrf "mrf" 2;
    cross_check Energy.Model.Rfc "rfc" 3;
    Util.Table.add_row audit_summary [ "alloc"; string_of_int !alloc_events; "" ];
    Util.Table.add_row audit_summary [ "desched"; string_of_int !desched_tally; "" ];
    Util.Table.add_row audit_summary [ "evict"; string_of_int !evict_tally; "" ];
    Util.Table.add_row audit_summary [ "total"; string_of_int !event_count; "" ];
    Util.Table.print audit_summary;
    Option.iter
      (fun path ->
        let spans = Obs.Span.spans () in
        write_or_die path (fun path ->
            Obs.Trace_export.write_file ~path ~process_name:"rfh profile" spans);
        Printf.printf "trace: %d spans -> %s\n" (List.length spans) path)
      trace_out;
    (match audit_oc with
     | None -> ()
     | Some oc ->
       close_out oc;
       Printf.printf "audit: %d events -> %s\n" !event_count (Option.get audit_out));
    Obs.Audit.disable ();
    Obs.Span.set_enabled false;
    collect_outputs ~entries ~lrf (opts_of ~warps ~seed ~benchmarks:names ~jobs) ~manifest_out
      ~report_out ~history_out:None;
    (* Cache behaviour: the always-on memo counters make hit rates
       visible without engine profiling.  Printed last so a manifest
       collection above (--manifest-out/--report-out) is included. *)
    Util.Table.print (Obs.Engine.memo_stats_table (Util.Eprof.memo_stats ()));
    report ~failed:"profile: audit/Energy.Counts write totals disagree" ()
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ warps_arg $ seed_arg $ benchmarks_arg $ jobs_arg $ entries_arg $ lrf_arg
      $ trace_out_arg $ audit_out_arg $ manifest_out_arg $ report_out_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* baseline: record / check the regression-gate golden manifest.       *)

let baseline_default_path = "baselines/default.json"

let baseline_path_arg =
  let doc = "Golden manifest file." in
  Arg.(value & opt string baseline_default_path & info [ "baseline" ] ~docv:"FILE" ~doc)

(* The gate runs in CI on every push, so its default working set is the
   quick one: 8 warps reproduce the same normalized results for the
   warp-uniform kernels at a fraction of the simulation time. *)
let baseline_warps_arg = warps_opt 8

let baseline_record_cmd =
  let doc =
    "Record the golden run manifest the regression gate compares against.  Deterministic \
     fields (access counts, allocator stats, traffic, metric counters) are later compared \
     exactly; record once and commit the file."
  in
  let run warps seed benchmarks jobs path manifest_out report_out =
    let opts = opts_of ~warps ~seed ~benchmarks ~jobs in
    let m = Experiments.Run_manifest.collect opts in
    write_or_die path (fun path -> Obs.Manifest.write_file ~path m);
    Printf.printf "baseline: %d benchmarks, mean normalized energy %.4f -> %s\n"
      (List.length m.Obs.Manifest.benches)
      (Obs.Manifest.mean_norm_energy m)
      path;
    write_manifest_outputs m ~manifest_out ~report_out
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const run $ baseline_warps_arg $ seed_arg $ benchmarks_arg $ jobs_arg $ baseline_path_arg
      $ manifest_out_arg $ report_out_arg)

let baseline_check_cmd =
  let doc =
    "Run fresh and diff against the golden manifest: exact comparison for deterministic \
     counts, relative tolerance for other floats, timings only with $(b,--timing-tol).  \
     Exits 1 on violations, 2 if the baseline is missing."
  in
  let float_tol_arg =
    let doc = "Relative tolerance for non-integral numbers." in
    Arg.(value & opt float 1e-9 & info [ "float-tol" ] ~docv:"TOL" ~doc)
  in
  let timing_tol_arg =
    let doc =
      "Also compare wall-clock timing fields (phase total_ms) with this relative tolerance; \
       without it they are skipped."
    in
    Arg.(value & opt (some float) None & info [ "timing-tol" ] ~docv:"TOL" ~doc)
  in
  let json_out_arg =
    let doc =
      "Write the machine-readable violations report (ok flag, compared count, violation \
       list) to $(docv) — written on success and failure alike."
    in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc)
  in
  let why_arg =
    let doc =
      "On failure, also print the ranked root-cause diagnosis (metric and stall-share \
       deltas between the golden manifest and the fresh run) to stderr.  Exit codes are \
       unchanged."
    in
    Arg.(value & flag & info [ "why" ] ~doc)
  in
  (* Exit-code contract (documented in docs/observability.md): 0 = the
     run matches the golden manifest, 1 = a compared field drifted,
     2 = the baseline file is missing or unreadable. *)
  let run warps seed benchmarks jobs path float_tol timing_tol manifest_out report_out
      json_out why =
    match Obs.Manifest.read_file ~path with
    | Error msg ->
      Printf.eprintf
        "baseline check: cannot read %s (%s)\n\
         exit 2: the golden manifest is missing or unreadable (1 = drift, 0 = match).\n\
         Record one first: rfh baseline record\n"
        path msg;
      exit 2
    | Ok baseline ->
      let opts = opts_of ~warps ~seed ~benchmarks ~jobs in
      let current = Experiments.Run_manifest.collect opts in
      write_manifest_outputs ~compare:baseline current ~manifest_out ~report_out;
      let report = Obs.Regress.diff ~float_tol ?timing_tol ~baseline ~current () in
      Util.Table.print (Obs.Regress.to_table report);
      Option.iter
        (fun path ->
          write_json path (Obs.Regress.to_json report);
          Printf.printf "violations json -> %s\n" path)
        json_out;
      if not (Obs.Regress.ok report) then begin
        if why then begin
          let r = Obs.Rootcause.analyze ~baseline ~candidate:current () in
          prerr_endline (Util.Table.render (Obs.Rootcause.to_table ~top:10 r));
          match Obs.Rootcause.top_cause r with
          | Some c ->
            Printf.eprintf "baseline why: top cause — %s: %s — %s\n" c.Obs.Rootcause.c_bench
              c.Obs.Rootcause.c_what c.Obs.Rootcause.c_delta
          | None ->
            prerr_endline
              "baseline why: no metric or stall cause found — the drift is in a field the \
               probes do not summarize (see the violations table)."
        end;
        prerr_endline
          "baseline check: FAILED — exit 1: a compared field drifted from the golden \
           manifest (0 = match, 2 = baseline missing or unreadable).";
        exit 1
      end
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ baseline_warps_arg $ seed_arg $ benchmarks_arg $ jobs_arg $ baseline_path_arg
      $ float_tol_arg $ timing_tol_arg $ manifest_out_arg $ report_out_arg $ json_out_arg
      $ why_arg)

let baseline_cmd =
  let doc = "Record or check the regression-gate golden manifest." in
  Cmd.group (Cmd.info "baseline" ~doc) [ baseline_record_cmd; baseline_check_cmd ]

(* ------------------------------------------------------------------ *)
(* trend: drift analysis over the cross-run performance history.       *)

let history_default_path = "baselines/history.jsonl"

let trend_cmd =
  let doc =
    "Analyze the cross-run performance history for sustained drift: robust per-series \
     statistics (median/MAD), change-point segmentation and a stable/improved/regressed/\
     noisy verdict per series.  With $(b,--check), gate CI on it."
  in
  let history_arg =
    let doc =
      "History JSONL file, appended to by the perfgate and any command's \
       $(b,--history-out)."
    in
    Arg.(value & opt string history_default_path & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let html_out_arg =
    let doc = "Write a self-contained HTML trend dashboard (the gate verdict and the table) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "html-out" ] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc =
      "Gate mode: exit 1 when any gated series shows a sustained regression, 2 when the \
       history holds fewer than 3 records (0 = clean)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let why_arg =
    let doc =
      "With $(b,--check), on failure also print a ranked root-cause diagnosis to stderr: \
       each offending record is diffed against the nearest earlier record with the same \
       source.  Exit codes are unchanged."
    in
    Arg.(value & flag & info [ "why" ] ~doc)
  in
  let run history_path html_out check why csv =
    let records, rejected = Obs.History.load ~path:history_path in
    let recs = Array.of_list records in
    let g = Obs.Trend.gate records in
    print_tables csv [ Obs.Trend.table ~history_path ~rejected records g ];
    Option.iter
      (fun path ->
        write_html path (Obs.Html_report.render_trend_page ~history_path ~records ~rejected g);
        Printf.printf "trend dashboard -> %s\n" path)
      html_out;
    (* Exit-code contract (documented in docs/observability.md): without
       --check the command always exits 0; with it, 0 = no sustained
       drift in a gated series, 1 = drift (stderr names each offending
       series with its change-point record and rev), 2 = fewer than 3
       records. *)
    if check then
      match g.Obs.Trend.g_exit with
      | 0 -> print_endline "trend check: OK — no sustained drift in any gated series."
      | 2 ->
        Printf.eprintf
          "trend check: only %d record%s in %s\n\
           exit 2: need at least 3 history records to judge drift (1 = drift, 0 = clean).\n"
          (Array.length recs)
          (if Array.length recs = 1 then "" else "s")
          history_path;
        exit 2
      | _ ->
        List.iter
          (fun (f : Obs.Trend.failure) ->
            Printf.eprintf
              "trend check: %s regressed %.4g -> %.4g at record %d (rev %s, source %s, \
               jobs %d)\n"
              f.Obs.Trend.f_series f.Obs.Trend.f_before f.Obs.Trend.f_after
              f.Obs.Trend.f_index (Obs.Host.short_rev f.Obs.Trend.f_rev) f.Obs.Trend.f_source
              f.Obs.Trend.f_jobs)
          g.Obs.Trend.g_failures;
        if why then begin
          (* One diagnosis per offending record: diff it against the
             nearest earlier record with the same source (same run
             shape), falling back to the immediate predecessor. *)
          let indices =
            List.sort_uniq compare
              (List.filter_map
                 (fun (f : Obs.Trend.failure) ->
                   if f.Obs.Trend.f_index > 0 then Some f.Obs.Trend.f_index else None)
                 g.Obs.Trend.g_failures)
          in
          List.iter
            (fun idx ->
              let after = recs.(idx) in
              let rec find i =
                if i < 0 then idx - 1
                else if recs.(i).Obs.History.source = after.Obs.History.source then i
                else find (i - 1)
              in
              let before_idx = find (idx - 1) in
              let before = recs.(before_idx) in
              let r = Obs.Rootcause.of_history ~before ~after in
              Printf.eprintf "trend why: record %d vs %d (source %s, jobs %d)\n" before_idx
                idx after.Obs.History.source after.Obs.History.jobs;
              prerr_endline (Util.Table.render (Obs.Rootcause.to_table ~top:5 r));
              match Obs.Rootcause.top_cause r with
              | Some c ->
                Printf.eprintf "trend why: top cause — %s: %s — %s\n" c.Obs.Rootcause.c_bench
                  c.Obs.Rootcause.c_what c.Obs.Rootcause.c_delta
              | None -> ())
            indices
        end;
        prerr_endline
          "trend check: FAILED — exit 1: a gated series shows a sustained regression \
           (0 = clean, 2 = not enough history).";
        exit 1
  in
  Cmd.v (Cmd.info "trend" ~doc)
    Term.(const run $ history_arg $ html_out_arg $ check_arg $ why_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* why: differential root-cause analysis of two run manifests.         *)

let why_cmd =
  let doc =
    "Differential root-cause analysis of two run manifests: metric deltas (IPC, \
     normalized energy, per-level RF energy), per-cause stall-share deltas and — with \
     $(b,--explain-a)/$(b,--explain-b) — per-live-range allocation decision flips, \
     combined into one deterministic ranked cause table.  Exits 0 when the analysis is \
     produced (even with zero causes), 1 when the attribution self-check fails, 2 when \
     an input is missing or unreadable."
  in
  let baseline_pos =
    let doc = "Baseline run manifest (JSON, as written by $(b,--manifest-out))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)
  in
  let candidate_pos =
    let doc = "Candidate run manifest to explain against the baseline." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE" ~doc)
  in
  let explain_a_arg =
    let doc =
      "Baseline allocation-explain JSONL stream (from $(b,rfh explain --jsonl-out)); \
       requires $(b,--explain-b)."
    in
    Arg.(value & opt (some string) None & info [ "explain-a" ] ~docv:"FILE" ~doc)
  in
  let explain_b_arg =
    let doc = "Candidate allocation-explain JSONL stream; requires $(b,--explain-a)." in
    Arg.(value & opt (some string) None & info [ "explain-b" ] ~docv:"FILE" ~doc)
  in
  let json_out_arg =
    let doc =
      "Write the machine-readable analysis (ranked causes, metric deltas, stall and \
       explain summaries, self-check verdict) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc)
  in
  let report_out_arg =
    let doc = "Write a self-contained HTML root-cause report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc =
      "Show only the $(docv) highest-ranked causes in the table ($(b,--json-out) always \
       carries all of them)."
    in
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"N" ~doc)
  in
  let exit2 fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf
          "why: %s\nexit 2: an input is missing or unreadable (1 = self-check failure, \
           0 = analysis produced).\n"
          msg;
        exit 2)
      fmt
  in
  let run baseline_path candidate_path explain_a explain_b json_out report_out top =
    let read_manifest what path =
      match Obs.Manifest.read_file ~path with
      | Ok m -> m
      | Error msg -> exit2 "cannot read %s manifest %s (%s)" what path msg
    in
    let baseline = read_manifest "baseline" baseline_path in
    let candidate = read_manifest "candidate" candidate_path in
    let explain =
      match (explain_a, explain_b) with
      | None, None -> None
      | Some a, Some b ->
        let load what path =
          match Obs.Explain.load_jsonl ~path with
          | Error msg -> exit2 "cannot read %s explain stream %s (%s)" what path msg
          | Ok (decisions, rejected) ->
            if rejected > 0 then
              Printf.eprintf "why: %d undecodable line%s skipped in %s\n" rejected
                (if rejected = 1 then "" else "s")
                path;
            decisions
        in
        let da = load "baseline" a and db = load "candidate" b in
        Some (Obs.Explain_diff.align ~a:da ~b:db)
      | _ -> exit2 "--explain-a and --explain-b must be given together"
    in
    let r = Obs.Rootcause.analyze ?explain ~baseline ~candidate () in
    Util.Table.print (Obs.Rootcause.delta_table r);
    Util.Table.print (Obs.Rootcause.to_table ?top r);
    Option.iter
      (fun path ->
        write_json path (Obs.Rootcause.to_json r);
        Printf.printf "why json -> %s\n" path)
      json_out;
    Option.iter
      (fun path ->
        write_html path
          (Obs.Html_report.render_why_page ~baseline_label:baseline_path
             ~candidate_label:candidate_path r);
        Printf.printf "why report -> %s\n" path)
      report_out;
    (match Obs.Rootcause.check r with
    | [] -> ()
    | issues ->
      List.iter (fun i -> Printf.eprintf "why self-check: %s\n" i) issues;
      prerr_endline
        "why: FAILED — exit 1: the attribution self-check failed (0 = analysis produced, \
         2 = input missing or unreadable).";
      exit 1);
    match Obs.Rootcause.top_cause r with
    | Some c ->
      Printf.printf "why: top cause — %s: %s — %s\n" c.Obs.Rootcause.c_bench
        c.Obs.Rootcause.c_what c.Obs.Rootcause.c_delta
    | None -> print_endline "why: no causes — the runs are equivalent under every probe."
  in
  Cmd.v (Cmd.info "why" ~doc)
    Term.(
      const run $ baseline_pos $ candidate_pos $ explain_a_arg $ explain_b_arg $ json_out_arg
      $ report_out_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* explain: decision-level introspection of one benchmark's allocation
   plus per-instruction energy attribution.                            *)

let explain_cmd =
  let doc =
    "Explain one benchmark's allocation decisions: per live-range unit, the candidate \
     levels the allocator weighed (with energy-savings estimates), why losers lost, \
     partial-range shortening, and the final placement — cross-checked against the run \
     manifest's allocator stats.  Also attributes register-file energy to each static \
     instruction and prints the top-$(b,--top) energy-bearing instructions.  \
     $(b,--jsonl-out) writes the decision stream as JSON Lines; $(b,--report-out) writes \
     an HTML report with the decision tables and an energy heatmap; $(b,--trace-out) \
     writes a Perfetto trace with per-cycle counter tracks."
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Energy-ranked instructions to print.")
  in
  let jsonl_out_arg =
    let doc = "Write every allocation decision as JSON Lines to $(docv)." in
    Arg.(value & opt (some string) None & info [ "jsonl-out" ] ~docv:"FILE" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write a Chrome trace-event JSON file with phase spans and the simulator counter \
       tracks (active warps, per-level accesses, occupancy)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run name top warps seed entries lrf jsonl_out trace_out report_out verbose =
    setup_verbosity verbose;
    let e = find_bench name in
    let bench = e.Workloads.Registry.name in
    let kernels = Lazy.force e.Workloads.Registry.kernels in
    let params = Energy.Params.default in
    let config = Alloc.Config.make ~orf_entries:entries ~lrf ~params () in
    if trace_out <> None then begin
      Obs.Span.reset ();
      Obs.Span.set_enabled true;
      Obs.Counters.reset ();
      Obs.Counters.set_enabled true
    end;
    (* Decision recorder: memory sink, teed into the JSONL writer. *)
    let mem_sink, decisions = Obs.Explain.memory_sink () in
    let jsonl_oc = Option.map (fun path -> write_or_die path open_out) jsonl_out in
    Obs.Explain.set_sink
      (Obs.Explain.tee
         (mem_sink
          :: (match jsonl_oc with Some oc -> [ Obs.Explain.jsonl_sink oc ] | None -> [])));
    (* Serial per-kernel pipeline: allocate under the explainer, then
       account traffic with per-instruction attribution on. *)
    let per_kernel =
      List.map
        (fun k ->
          let ctx = Alloc.Context.create k in
          let placement, stats = Alloc.Allocator.run config ctx in
          let sw =
            Sim.Traffic.run ~warps ~seed ~attribution:true ctx
              (Sim.Traffic.Sw { config; placement })
          in
          let baseline = Sim.Traffic.run ~warps ~seed ctx Sim.Traffic.Baseline in
          (k, ctx, placement, stats, sw, baseline))
        kernels
    in
    (* Everything below reads the recorder's memory; stop recording
       before the manifest collection re-runs the allocator. *)
    Obs.Explain.disable ();
    Option.iter close_out jsonl_oc;
    let all_decisions = decisions () in
    let reports =
      List.map
        (fun (k, ctx, placement, stats, sw, baseline) ->
          let kname = k.Ir.Kernel.name in
          let ds =
            List.filter (fun d -> d.Obs.Explain.kernel = kname) all_decisions
          in
          let energies =
            Energy.Counts.attributed_energies params ~orf_entries:entries
              sw.Sim.Traffic.counts
          in
          let total_pj = Array.fold_left ( +. ) 0.0 energies in
          let e_sw =
            (Energy.Counts.energy params ~orf_entries:entries sw.Sim.Traffic.counts)
              .Energy.Counts.total
          in
          let e_base =
            (Energy.Counts.energy params ~orf_entries:entries baseline.Sim.Traffic.counts)
              .Energy.Counts.total
          in
          let placed =
            List.length (List.filter Obs.Explain.placed ds)
          in
          Printf.printf
            "kernel %s: %d decisions (%d write units, %d read units); %d placed \
             upper-level, %d left in MRF; normalized energy %.3f\n"
            kname (List.length ds) stats.Alloc.Allocator.write_units
            stats.Alloc.Allocator.read_units placed
            (List.length ds - placed)
            (Util.Stats.ratio e_sw e_base);
          Util.Table.print (Obs.Explain.decision_table ~kernel:kname ds);
          (* Annotated instruction stream: operand levels plus the
             attributed energy of every static instruction. *)
          let share pc =
            if total_pj <= 0.0 || pc >= Array.length energies then 0.0
            else energies.(pc) /. total_pj
          in
          Printf.printf "instructions (attributed register-file energy, %% of %.1f pJ):\n"
            total_pj;
          let instr_lines = ref [] in
          Ir.Kernel.iter_instrs k (fun _ i ->
              let id = i.Ir.Instr.id in
              let strand, boundary, dst, srcs = placement_cols ctx placement i in
              let pj = if id < Array.length energies then energies.(id) else 0.0 in
              instr_lines :=
                {
                  Obs.Explain.pc = id;
                  strand;
                  text = Ir.Instr.to_string i;
                  pj;
                  share = share id;
                }
                :: !instr_lines;
              Printf.printf "s%-3d%s %-40s dst: %-18s srcs: %-20s %8.1f pJ %5.1f%%\n" strand
                boundary (Ir.Instr.to_string i) dst srcs pj (100.0 *. share id));
          print_newline ();
          (* Top-N energy-bearing instructions. *)
          let tt =
            Util.Table.create
              ~title:(Printf.sprintf "Top %d instructions by attributed energy: %s" top kname)
              ~columns:[ "PC"; "Strand"; "Instruction"; "pJ"; "Share" ]
          in
          List.iter
            (fun (pc, pj) ->
              let i = Ir.Kernel.instr k pc in
              Util.Table.add_row tt
                [
                  string_of_int pc;
                  string_of_int
                    (Strand.Partition.strand_of_instr ctx.Alloc.Context.partition pc);
                  Ir.Instr.to_string i;
                  Printf.sprintf "%.1f" pj;
                  Printf.sprintf "%.1f%%" (100.0 *. share pc);
                ])
            (Energy.Counts.top_instrs params ~orf_entries:entries ~n:top
               sw.Sim.Traffic.counts);
          Util.Table.print tt;
          {
            Obs.Explain.kr_kernel = kname;
            kr_decisions = ds;
            kr_instrs = List.rev !instr_lines;
            kr_total_pj = total_pj;
          })
        per_kernel
    in
    (* Cross-check: every live-range unit the allocator considered
       must have produced exactly one decision event, and the outcome
       tally must reproduce the manifest's allocator stats. *)
    let opts = opts_of ~warps ~seed ~benchmarks:[ bench ] ~jobs:1 in
    let m = Experiments.Run_manifest.collect ~entries ~lrf opts in
    let row =
      match
        List.find_opt (fun b -> b.Obs.Manifest.bench = bench) m.Obs.Manifest.benches
      with
      | Some b -> b
      | None -> prerr_endline "explain: benchmark missing from manifest"; exit 1
    in
    let count p = List.length (List.filter p all_decisions) in
    let lrf_n =
      count (fun d ->
          match d.Obs.Explain.outcome with Obs.Explain.To_lrf _ -> true | _ -> false)
    in
    let orf_n =
      count (fun d ->
          match d.Obs.Explain.outcome with Obs.Explain.To_orf _ -> true | _ -> false)
    in
    let partial_n =
      count (fun d ->
          match d.Obs.Explain.outcome with
          | Obs.Explain.To_orf { shortened; _ } -> shortened > 0
          | _ -> false)
    in
    let checks =
      [
        ("decisions = write + read units", List.length all_decisions,
         row.Obs.Manifest.write_units + row.Obs.Manifest.read_units);
        ("LRF placements", lrf_n, row.Obs.Manifest.lrf_allocs);
        ("ORF placements", orf_n, row.Obs.Manifest.orf_allocs);
        ("partial (shortened) placements", partial_n, row.Obs.Manifest.partial_allocs);
      ]
    in
    let ct =
      Util.Table.create ~title:"Cross-check vs run-manifest allocator stats"
        ~columns:[ "Check"; "Explainer"; "Manifest"; "" ]
    in
    let check, report = self_checks () in
    List.iter
      (fun (what, got, want) ->
        check (Printf.sprintf "%s: explainer %d, manifest %d" what got want) (got = want);
        Util.Table.add_row ct
          [ what; string_of_int got; string_of_int want;
            (if got = want then "ok" else "MISMATCH") ])
      checks;
    Util.Table.print ct;
    Option.iter (fun n -> Printf.printf "jsonl: %d decisions -> %s\n"
                    (List.length all_decisions) n) jsonl_out;
    Option.iter
      (fun path ->
        write_html path (Obs.Html_report.render ~explain:reports m);
        Printf.printf "report -> %s\n" path)
      report_out;
    Option.iter
      (fun path ->
        let spans = Obs.Span.spans () in
        let counters = Obs.Counters.tracks () in
        write_or_die path (fun path ->
            Obs.Trace_export.write_file ~path ~process_name:"rfh explain" ~counters spans);
        Printf.printf "trace: %d spans, %d counter tracks -> %s\n" (List.length spans)
          (List.length counters) path;
        Obs.Counters.set_enabled false;
        Obs.Span.set_enabled false)
      trace_out;
    report ~failed:"explain: decision events disagree with the manifest allocator stats" ()
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ bench_name_arg $ top_arg $ warps_arg $ seed_arg $ entries_arg $ lrf_arg
      $ jsonl_out_arg $ trace_out_arg $ report_out_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* timeline: warp-level pipeline introspection of one benchmark's
   timing simulation — per-cause stall breakdown across scheduler
   configurations, active-set residency, top stalled warps, and the
   per-warp state intervals as JSONL / Perfetto slices.               *)

let timeline_cmd =
  let doc =
    "Attribute every warp-cycle of one benchmark's timing simulation to a stall cause \
     (issued, long/short-latency dependence, banked-MRF conflict serialization, \
     descheduled, lost arbitration, finished) across scheduler/policy configurations, \
     with active-set residency stats and the most-stalled warps.  The breakdown is exact: \
     it sums to cycles x warps for every configuration, and the command exits 1 if any \
     cross-check fails.  $(b,--jsonl-out) writes the per-warp state intervals as JSON \
     Lines (validated by re-reading); $(b,--trace-out) writes a Perfetto trace whose \
     timeline rows render one thread per warp; $(b,--report-out) writes the HTML run \
     report with the stall-attribution section."
  in
  let banks_arg =
    let doc = "MRF banks for the banked operand-fetch configurations (Table 2: 32)." in
    Arg.(value & opt int 32 & info [ "mrf-banks" ] ~docv:"N" ~doc)
  in
  let top_arg =
    Arg.(value & opt int 8 & info [ "top" ] ~docv:"N" ~doc:"Most-stalled warps to print.")
  in
  let jsonl_out_arg =
    let doc = "Write the recorded warp-state intervals as JSON Lines to $(docv)." in
    Arg.(value & opt (some string) None & info [ "jsonl-out" ] ~docv:"FILE" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write a Chrome trace-event JSON file with phase spans, simulator counter tracks and \
       the per-warp timeline slices (one Perfetto thread per warp)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run name warps seed banks top jsonl_out trace_out report_out =
    let e = find_bench name in
    let bench = e.Workloads.Registry.name in
    let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
    if trace_out <> None then begin
      Obs.Span.reset ();
      Obs.Span.set_enabled true;
      Obs.Counters.reset ();
      Obs.Counters.set_enabled true
    end;
    let base_configs =
      [
        ("single-level on-dep", Sim.Perf.Single_level, Sim.Perf.On_dependence);
        ("two-level-8 on-dep", Sim.Perf.Two_level 8, Sim.Perf.On_dependence);
        ("two-level-8 strand", Sim.Perf.Two_level 8, Sim.Perf.At_strand_boundaries);
      ]
    in
    let configs =
      List.map (fun (l, s, p) -> (l ^ " ideal", s, p, None)) base_configs
      @ List.map (fun (l, s, p) -> (l ^ " banked", s, p, Some banks)) base_configs
    in
    (* The recorder captures the configuration the paper cares most
       about: the two-level scheduler under the hardware policy with
       banked operand fetch. *)
    let primary_label = "two-level-8 on-dep banked" in
    let mem_sink, intervals = Obs.Timeline.memory_sink () in
    let jsonl_oc = Option.map (fun path -> write_or_die path open_out) jsonl_out in
    let check, report = self_checks () in
    let results =
      List.map
        (fun (label, scheduler, policy, mrf_banks) ->
          let primary = label = primary_label in
          if primary then
            Obs.Timeline.set_sink
              (Obs.Timeline.tee
                 (mem_sink
                  :: (match jsonl_oc with
                      | Some oc -> [ Obs.Timeline.jsonl_sink oc ]
                      | None -> [])));
          let r = Sim.Perf.run ~warps ~seed ?mrf_banks ~scheduler ~policy ctx in
          if primary then Obs.Timeline.disable ();
          (* Exactness invariant: the breakdown accounts for every
             warp-cycle, per warp and in total, and the issued total
             reproduces the instruction count. *)
          check
            (Printf.sprintf "%s: stall total = cycles x warps" label)
            (Sim.Perf.breakdown_total r.Sim.Perf.stalls = r.Sim.Perf.cycles * warps);
          Array.iter
            (fun (ws : Sim.Perf.warp_stats) ->
              check
                (Printf.sprintf "%s: warp %d breakdown sums to cycles" label
                   ws.Sim.Perf.warp)
                (Sim.Perf.breakdown_total ws.Sim.Perf.breakdown = r.Sim.Perf.cycles))
            r.Sim.Perf.per_warp;
          check
            (Printf.sprintf "%s: issued cycles = instructions" label)
            (r.Sim.Perf.stalls.Sim.Perf.issued = r.Sim.Perf.instructions);
          (label, r))
        configs
    in
    Option.iter close_out jsonl_oc;
    let primary_r = List.assoc primary_label results in
    (* Recorder neutrality: re-running the recorded configuration
       with the recorder off must reproduce the same breakdown. *)
    let unrecorded =
      Sim.Perf.run ~warps ~seed ~mrf_banks:banks ~scheduler:(Sim.Perf.Two_level 8)
        ~policy:Sim.Perf.On_dependence ctx
    in
    check "recorder on/off breakdown identity"
      (Sim.Perf.breakdown_fields unrecorded.Sim.Perf.stalls
       = Sim.Perf.breakdown_fields primary_r.Sim.Perf.stalls
      && unrecorded.Sim.Perf.cycles = primary_r.Sim.Perf.cycles);
    (* Interval cross-checks: per warp, the recorded intervals tile
       [0, cycles) and re-derive the breakdown exactly. *)
    let ivs = intervals () in
    for w = 0 to warps - 1 do
      let wivs = List.filter (fun iv -> iv.Obs.Timeline.warp = w) ivs in
      let rec tiles expected = function
        | [] -> expected = primary_r.Sim.Perf.cycles
        | iv :: tl -> iv.Obs.Timeline.start = expected && tiles iv.Obs.Timeline.stop tl
      in
      check (Printf.sprintf "warp %d intervals tile [0, cycles)" w) (tiles 0 wivs);
      let from_ivs cause =
        List.fold_left
          (fun acc iv ->
            if iv.Obs.Timeline.state = cause then
              acc + (iv.Obs.Timeline.stop - iv.Obs.Timeline.start)
            else acc)
          0 wivs
      in
      let ws = primary_r.Sim.Perf.per_warp.(w) in
      List.iter
        (fun cause ->
          check
            (Printf.sprintf "warp %d: intervals re-derive %s cycles" w
               (Obs.Timeline.state_name cause))
            (from_ivs cause = Sim.Perf.breakdown_get ws.Sim.Perf.breakdown cause))
        Obs.Timeline.all_states
    done;
    (* JSONL round-trip: the written stream must decode back to the
       recorded intervals, line for line, with no rejected line. *)
    Option.iter
      (fun path ->
        match Obs.Timeline.load_jsonl ~path with
        | Error msg -> check ("jsonl re-read: " ^ msg) false
        | Ok (decoded, rejected) ->
          check (Printf.sprintf "jsonl: %d undecodable lines" rejected) (rejected = 0);
          check "jsonl round-trip reproduces the recorded intervals" (decoded = ivs);
          Printf.printf "jsonl: %d intervals -> %s (round-trip ok)\n" (List.length ivs) path)
      jsonl_out;
    (* Stall-breakdown table: one row per configuration. *)
    let bt =
      Util.Table.create
        ~title:
          (Printf.sprintf "Stall attribution: %s (%d warps, %% of cycles x warps)" bench
             warps)
        ~columns:
          ([ "Config"; "Cycles"; "IPC" ]
          @ List.map Obs.Timeline.state_name Obs.Timeline.all_states)
    in
    List.iter
      (fun (label, (r : Sim.Perf.result)) ->
        let total = float_of_int (max 1 (Sim.Perf.breakdown_total r.Sim.Perf.stalls)) in
        Util.Table.add_row bt
          ([
             label;
             string_of_int r.Sim.Perf.cycles;
             Printf.sprintf "%.3f" r.Sim.Perf.ipc;
           ]
          @ List.map
              (fun cause ->
                Printf.sprintf "%.1f%%"
                  (100.0
                  *. float_of_int (Sim.Perf.breakdown_get r.Sim.Perf.stalls cause)
                  /. total))
              Obs.Timeline.all_states))
      results;
    Util.Table.print bt;
    (* Residency table. *)
    let rt =
      Util.Table.create ~title:"Active-set residency"
        ~columns:
          [ "Config"; "Entries"; "Exits"; "Resident cycles"; "Mean residency";
            "Desched LL"; "Desched strand"; "Desched conflict" ]
    in
    List.iter
      (fun (label, (r : Sim.Perf.result)) ->
        let s = r.Sim.Perf.sched in
        Util.Table.add_row rt
          [
            label;
            string_of_int s.Sim.Perf.entries;
            string_of_int s.Sim.Perf.exits;
            string_of_int s.Sim.Perf.resident_cycles;
            Printf.sprintf "%.1f" (Sim.Perf.mean_residency s);
            string_of_int s.Sim.Perf.desched_long_latency;
            string_of_int s.Sim.Perf.desched_strand_boundary;
            string_of_int s.Sim.Perf.desched_bank_conflict;
          ])
      results;
    Util.Table.print rt;
    (* Top stalled warps of the recorded configuration. *)
    let tt =
      Util.Table.create
        ~title:(Printf.sprintf "Top %d stalled warps (%s)" top primary_label)
        ~columns:
          ([ "Warp"; "Stalled" ] @ List.map Obs.Timeline.state_name Obs.Timeline.all_states)
    in
    let ranked =
      List.sort
        (fun (a : Sim.Perf.warp_stats) (b : Sim.Perf.warp_stats) ->
          match
            compare
              (Sim.Perf.stalled_cycles b.Sim.Perf.breakdown)
              (Sim.Perf.stalled_cycles a.Sim.Perf.breakdown)
          with
          | 0 -> compare a.Sim.Perf.warp b.Sim.Perf.warp
          | c -> c)
        (Array.to_list primary_r.Sim.Perf.per_warp)
    in
    let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
    List.iter
      (fun (ws : Sim.Perf.warp_stats) ->
        Util.Table.add_row tt
          ([
             string_of_int ws.Sim.Perf.warp;
             string_of_int (Sim.Perf.stalled_cycles ws.Sim.Perf.breakdown);
           ]
          @ List.map
              (fun cause ->
                string_of_int (Sim.Perf.breakdown_get ws.Sim.Perf.breakdown cause))
              Obs.Timeline.all_states))
      (take top ranked);
    Util.Table.print tt;
    Option.iter
      (fun path ->
        let spans = Obs.Span.spans () in
        let counters = Obs.Counters.tracks () in
        write_or_die path (fun path ->
            Obs.Trace_export.write_file ~path ~process_name:"rfh timeline" ~counters
              ~timeline:ivs spans);
        Printf.printf "trace: %d spans, %d counter tracks, %d timeline slices -> %s\n"
          (List.length spans) (List.length counters) (List.length ivs) path;
        Obs.Counters.set_enabled false;
        Obs.Span.set_enabled false)
      trace_out;
    Option.iter
      (fun path ->
        let opts = opts_of ~warps ~seed ~benchmarks:[ bench ] ~jobs:1 in
        write_html path (Obs.Html_report.render (Experiments.Run_manifest.collect opts));
        Printf.printf "report -> %s\n" path)
      report_out;
    report ~failed:"timeline: cross-checks FAILED:"
      ~passed:
        (Printf.sprintf
           "timeline: all cross-checks passed (%d configs; breakdowns sum to cycles x %d \
            warps)"
           (List.length configs) warps)
      ()
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(
      const run $ bench_name_arg $ warps_arg $ seed_arg $ banks_arg $ top_arg $ jsonl_out_arg
      $ trace_out_arg $ report_out_arg)

(* ------------------------------------------------------------------ *)
(* engine: wall-clock profiling of the host engine itself — where does
   parallel wall x domains go, exactly, and how much of it is GC?      *)

let engine_cmd =
  let doc =
    "Profile the host engine while regenerating one artefact (or $(b,all)) at each \
     requested $(b,--jobs) setting: speedup/efficiency per setting, plus an exact \
     decomposition of every parallel region's wall x domains budget into useful work, \
     spawn, teardown, lock wait, memo wait, dispatch and idle — the categories sum \
     exactly.  The GC view of the same windows splits every region's useful time into \
     compute + gc from Runtime_events pauses, with Gc.quick_stat allocation deltas per \
     region and a pause-duration histogram (p50/p99).  Exits 1 if any accounting \
     invariant fails, a GC capture is missing, or the rendered tables differ across jobs \
     settings.  $(b,--trace-out) writes a Perfetto trace with per-domain task slices \
     (pid 4) and GC pause slices (pid 5) on wall-clock process rows; $(b,--json-out) \
     writes the engine reports (gc capture included) as JSON; $(b,--report-out) writes a \
     standalone HTML engine+GC report."
  in
  let target_arg =
    Arg.(
      value
      & pos 0 string "fig13"
      & info [] ~docv:"TARGET" ~doc:"Artefact to regenerate (fig2..tables, or 'all').")
  in
  let jobs_list_arg =
    let doc = "Comma-separated worker-domain settings to profile, e.g. 1,2,4,8." in
    Arg.(value & opt (list int) [ 1; 2 ] & info [ "jobs"; "j" ] ~docv:"N,N,..." ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write a Chrome trace-event JSON file: phase spans (pid 1), per-domain engine \
       task/wait slices (pid 4) and per-domain GC pause slices (pid 5), all against one \
       monotonic epoch."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let json_out_arg =
    let doc =
      "Write the engine reports (one per jobs setting, gc capture included) as a JSON \
       array to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc)
  in
  let run target warps seed benchmarks jobs_list trace_out json_out report_out =
    let artefacts = artefacts_of_target target in
    let jobs_list =
      List.sort_uniq compare (List.map (fun j -> Util.Pool.resolve_jobs (Some j)) jobs_list)
    in
    let jobs_list = if jobs_list = [] then [ 1 ] else jobs_list in
    if trace_out <> None then begin
      Obs.Span.reset ();
      Obs.Span.set_enabled true
    end;
    let check, report = self_checks () in
    (* One profiled window per jobs setting.  Caches are cleared before
       every window so each run recomputes the same work from scratch —
       the walls are comparable and the memo tables show their real
       inter-domain behaviour instead of a warm cache. *)
    let runs =
      List.map
        (fun j ->
          Experiments.Report.clear_caches ();
          let opts = opts_of ~warps ~seed ~benchmarks ~jobs:j in
          let rendered, report =
            Obs.Engine.profile ~label:target ~jobs:j (fun () ->
                List.concat_map
                  (fun a -> List.map Util.Table.render (Experiments.Report.tables_of opts a))
                  artefacts)
          in
          (j, String.concat "\n" rendered, report))
        jobs_list
    in
    let reports = List.map (fun (_, _, r) -> r) runs in
    (* Result parity: the engine may only change how fast tables are
       produced, never their bytes. *)
    (match runs with
     | [] -> ()
     | (j0, out0, _) :: rest ->
       List.iter
         (fun (j, out, _) ->
           check (Printf.sprintf "rendered tables at jobs=%d byte-identical to jobs=%d" j j0)
             (String.equal out out0))
         rest);
    (* Accounting invariants: every category >= 0 and the seven sum to
       wall x domains in every region, 0 <= gc <= useful, lookups =
       hits+misses+waits per memo table, contended <= acquisitions per
       lock. *)
    List.iter
      (fun (r : Obs.Engine.report) ->
        check (Printf.sprintf "jobs=%d: gc capture present" r.Obs.Engine.jobs)
          (r.Obs.Engine.gc <> None);
        List.iter
          (fun violation -> check (Printf.sprintf "jobs=%d: %s" r.Obs.Engine.jobs violation) false)
          (Obs.Engine.check r))
      reports;
    List.iter Util.Table.print (Obs.Engine.tables reports);
    Option.iter
      (fun path ->
        write_json path (Obs.Json.Arr (List.map Obs.Engine.to_json reports));
        Printf.printf "engine json: %d reports -> %s\n" (List.length reports) path)
      json_out;
    Option.iter
      (fun path ->
        write_html path (Obs.Html_report.render_engine_page reports);
        Printf.printf "engine report -> %s\n" path)
      report_out;
    Option.iter
      (fun path ->
        let spans = Obs.Span.spans () in
        Obs.Span.set_enabled false;
        (* One shared zero point: engine epochs and span timestamps are
           the same CLOCK_MONOTONIC, so the earliest of either works for
           every row. *)
        let base_ns =
          List.fold_left
            (fun acc (r : Obs.Engine.report) -> min acc r.Obs.Engine.epoch_ns)
            (match spans with
             | [] -> (match reports with [] -> 0L | r :: _ -> r.Obs.Engine.epoch_ns)
             | _ -> Obs.Trace_export.earliest_span_ns spans)
            reports
        in
        let extra =
          List.concat_map (Obs.Engine.trace_events ~base_ns) reports
          @ List.concat_map (Obs.Engine.gc_trace_events ~base_ns) reports
        in
        write_or_die path (fun path ->
            Obs.Trace_export.write_file ~path ~process_name:"rfh engine" ~base_ns ~extra spans);
        Printf.printf "trace: %d spans + %d engine/gc rows -> %s\n" (List.length spans)
          (List.length extra) path)
      trace_out;
    report ~failed:"engine: self-checks FAILED:"
      ~passed:
        (Printf.sprintf
           "engine: all self-checks passed (%d jobs settings; categories sum to wall x \
            domains and 0 <= gc <= useful in every region; rendered tables byte-identical)"
           (List.length jobs_list))
      ()
  in
  Cmd.v (Cmd.info "engine" ~doc)
    Term.(
      const run $ target_arg $ warps_arg $ seed_arg $ benchmarks_arg $ jobs_list_arg
      $ trace_out_arg $ json_out_arg $ report_out_arg)

let () =
  let doc = "compile-time managed multi-level register file hierarchy (MICRO 2011) reproduction" in
  let info = Cmd.info "rfh" ~version:"1.0.0" ~doc in
  let cmds =
    List.map artefact_cmd Experiments.Report.artefact_names
    @ [ all_cmd; kernels_cmd; allocate_cmd; compile_cmd; selfcheck_cmd; trace_cmd; profile_cmd;
        baseline_cmd; trend_cmd; why_cmd; explain_cmd; timeline_cmd; engine_cmd ]
  in
  exit (Cmd.eval (Cmd.group info cmds))
