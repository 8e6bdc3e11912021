(* The artefact commands: fig2 ... tables each print one table or
   figure of the paper's evaluation, and all prints every one. *)

open Cmdliner

let doc_of = function
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
  | "all" -> "Regenerate every table and figure."
  | _ -> "Experiment."

let metrics =
  let doc = "Append a metrics-registry summary after the command's output." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* The --metrics table: a registry summary, not an artefact table, so it
   prints as text even under --csv. *)
let metrics_outs metrics =
  if not metrics then []
  else
    let t = Experiments.Report.metrics_table () in
    [ Cli.Text (Util.Table.render t ^ "\n\n"); Cli.Page (Obs.Html_report.Table t) ]

(* The artefacts' tables, then the --metrics table, then the run
   manifest outputs; the page ends with the run report. *)
let cmd name artefacts =
  let run opts csv metrics manifest_out report_out history_out =
    let tables = List.concat_map (Experiments.Report.tables_of opts) artefacts in
    let metrics = metrics_outs metrics in
    let saved, run_report = Cli.collected ?history_out opts ~manifest_out ~report_out in
    Cli.emit ~csv ~title:("rfh " ^ name) ?report_out
      (List.map (fun t -> Cli.Table t) tables @ metrics @ saved @ run_report)
  in
  Cmd.v (Cmd.info name ~doc:(doc_of name) ~exits:Cli.exits)
    Term.(
      const run $ Cli.options () $ Cli.csv $ metrics $ Cli.manifest_out $ Cli.report_out ()
      $ Cli.history_out)

let cmds =
  List.map (fun (name, a) -> cmd name [ a ]) Experiments.Report.artefact_names
  @ [ cmd "all" (List.map snd Experiments.Report.artefact_names) ]
