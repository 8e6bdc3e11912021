(* explain: one benchmark's allocation decisions, cross-checked against
   the run manifest, plus per-instruction energy attribution. *)

open Cmdliner

(* One kernel's output: the decision summary and table, the annotated
   instruction stream with its heatmap, and the top-[n] energy table. *)
let kernel_outs ~params ~entries ~top ds (k, ctx, placement, (stats : Alloc.Allocator.stats), sw, baseline) =
  let kname = k.Ir.Kernel.name in
  let counts (r : Sim.Traffic.result) = r.Sim.Traffic.counts in
  let energies = Energy.Counts.attributed_energies params ~orf_entries:entries (counts sw) in
  let total_pj = Array.fold_left ( +. ) 0.0 energies in
  let energy r = (Energy.Counts.energy params ~orf_entries:entries (counts r)).Energy.Counts.total in
  let share pc =
    if total_pj <= 0.0 || pc >= Array.length energies then 0.0 else energies.(pc) /. total_pj
  in
  let lines = Buffer.create 4096 in
  Printf.bprintf lines "instructions (attributed register-file energy, %% of %.1f pJ):\n" total_pj;
  let instrs =
    List.rev
      (Ir.Kernel.fold_instrs k ~init:[] ~f:(fun acc _ i ->
           let id = i.Ir.Instr.id in
           let line, srcs = Cli.placement_line ctx placement i in
           let pj = if id < Array.length energies then energies.(id) else 0.0 in
           Printf.bprintf lines "%s%-20s %8.1f pJ %5.1f%%\n" line srcs pj (100.0 *. share id);
           {
             Obs.Explain.pc = id;
             strand = Strand.Partition.strand_of_instr ctx.Alloc.Context.partition id;
             text = Ir.Instr.to_string i;
             pj;
             share = share id;
           }
           :: acc))
  in
  Buffer.add_char lines '\n';
  let r =
    { Obs.Explain.kr_kernel = kname; kr_decisions = ds; kr_instrs = instrs; kr_total_pj = total_pj }
  in
  let placed = List.length (List.filter Obs.Explain.placed ds) in
  [
    Cli.textf
      "kernel %s: %d decisions (%d write units, %d read units); %d placed upper-level, %d left \
       in MRF; normalized energy %.3f\n"
      kname (List.length ds) stats.Alloc.Allocator.write_units stats.Alloc.Allocator.read_units
      placed
      (List.length ds - placed)
      (Util.Stats.ratio (energy sw) (energy baseline));
    Cli.Page (Obs.Html_report.explain_header r);
    Cli.Table (Obs.Explain.decision_table ~kernel:kname ds);
    Cli.Text (Buffer.contents lines);
  ]
  @ (if instrs = [] then [] else [ Cli.Page (Obs.Html_report.heatmap r) ])
  @ [ Cli.Table (Obs.Explain.top_table ~n:top r) ]

let cmd =
  let doc =
    "Explain one benchmark's allocation decisions: per live-range unit, the candidate levels \
     the allocator weighed (with energy-savings estimates), why losers lost, partial-range \
     shortening, and the final placement — cross-checked against the run manifest's \
     allocator stats.  Also attributes register-file energy to each static instruction and \
     prints the top-$(b,--top) energy-bearing instructions.  $(b,--jsonl-out) writes the \
     decision stream as JSON Lines; $(b,--report-out) writes an HTML report with the \
     decision tables and an energy heatmap; $(b,--trace-out) writes a Perfetto trace with \
     per-cycle counter tracks."
  in
  let top = Term.(const Option.get $ Cli.top ~default:10 "Energy-ranked instructions to print.") in
  let jsonl_out = Cli.jsonl_out "Write every allocation decision as JSON Lines to $(docv)." in
  let trace_out =
    Cli.trace_out
      "Write a Chrome trace-event JSON file with phase spans and the simulator counter tracks \
       (active warps, per-level accesses, occupancy)."
  in
  let run name top warps seed entries lrf jsonl_out trace_out report_out verbose =
    Cli.setup_verbosity verbose;
    let e = Cli.find_bench name in
    let bench = e.Workloads.Registry.name in
    let params = Energy.Params.default in
    let config = Alloc.Config.make ~orf_entries:entries ~lrf ~params () in
    let check, report = Cli.self_checks () in
    let (decisions, outs, m), trace_line =
      Cli.traced ~counters:true ~process_name:"rfh explain" trace_out (fun () ->
          let decisions, close = Cli.recording (module Obs.Explain) jsonl_out in
          (* Serial per-kernel pipeline: allocate under the explainer,
             then account traffic with per-instruction attribution on. *)
          let runs =
            List.map
              (fun k ->
                let ctx = Alloc.Context.create k in
                let placement, stats = Alloc.Allocator.run config ctx in
                let sw =
                  Sim.Traffic.run ~warps ~seed ~attribution:true ctx
                    (Sim.Traffic.Sw { config; placement })
                in
                (k, ctx, placement, stats, sw, Sim.Traffic.run ~warps ~seed ctx Sim.Traffic.Baseline))
              (Lazy.force e.Workloads.Registry.kernels)
          in
          (* Everything below reads the recorder's memory; stop
             recording before the manifest collection re-runs the
             allocator. *)
          close ();
          let decisions = decisions () in
          let outs =
            List.concat_map
              (fun ((k, _, _, _, _, _) as run) ->
                kernel_outs ~params ~entries ~top
                  (List.filter (fun d -> d.Obs.Explain.kernel = k.Ir.Kernel.name) decisions)
                  run)
              runs
          in
          let m = Experiments.Run_manifest.collect ~entries ~lrf (Cli.bench_options ~warps ~seed e) in
          ((decisions, outs, m), Cli.no_rows))
    in
    let row =
      match List.find_opt (fun b -> b.Obs.Manifest.bench = bench) m.Obs.Manifest.benches with
      | Some b -> b
      | None -> prerr_endline "explain: benchmark missing from manifest"; exit 1
    in
    let checks = Obs.Explain.stats_checks decisions row in
    List.iter
      (fun (what, got, want) ->
        check (Printf.sprintf "%s: explainer %d, manifest %d" what got want) (got = want))
      checks;
    let saved, run_report = Cli.manifest_outs m ~manifest_out:None in
    Cli.emit ~title:("rfh explain " ^ bench) ?report_out
      ((Cli.Page (Obs.Html_report.heading "Allocation explainer") :: outs)
      @ [ Cli.Table (Obs.Explain.cross_check_table checks) ]
      @ Option.fold ~none:[]
          ~some:(fun path -> [ Cli.textf "jsonl: %d decisions -> %s\n" (List.length decisions) path ])
          jsonl_out
      @ saved @ trace_line @ run_report);
    report ~failed:"explain: decision events disagree with the manifest allocator stats" ()
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ Cli.bench_name $ top $ Cli.warps () $ Cli.seed $ Cli.entries $ Cli.lrf
      $ jsonl_out $ trace_out $ Cli.report_out () $ Cli.verbose)
