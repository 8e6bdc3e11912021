type artefact =
  | Fig2 | Fig11 | Fig12 | Fig13 | Fig14 | Fig15
  | Perf | Encoding | Limit | Ablation | Divergence | Pressure | Scheduling | Tables

let artefact_names =
  [
    ("fig2", Fig2); ("fig11", Fig11); ("fig12", Fig12); ("fig13", Fig13); ("fig14", Fig14);
    ("fig15", Fig15); ("perf", Perf); ("encoding", Encoding); ("limit", Limit);
    ("ablation", Ablation); ("divergence", Divergence); ("pressure", Pressure);
    ("scheduling", Scheduling); ("tables", Tables);
  ]

(* Direct match, not a list scan: [name_of] runs per span label on the
   artefact hot path. *)
let name_of = function
  | Fig2 -> "fig2"
  | Fig11 -> "fig11"
  | Fig12 -> "fig12"
  | Fig13 -> "fig13"
  | Fig14 -> "fig14"
  | Fig15 -> "fig15"
  | Perf -> "perf"
  | Encoding -> "encoding"
  | Limit -> "limit"
  | Ablation -> "ablation"
  | Divergence -> "divergence"
  | Pressure -> "pressure"
  | Scheduling -> "scheduling"
  | Tables -> "tables"

let tables_of opts a =
  Obs.Span.with_span ("artefact:" ^ name_of a) (fun () ->
      match a with
      | Fig2 -> Fig2.tables opts
      | Fig11 -> Access_breakdown.fig11_tables opts
      | Fig12 -> Access_breakdown.fig12_tables opts
      | Fig13 -> [ Energy_sweep.table opts ]
      | Fig14 -> [ Energy_breakdown.table opts ]
      | Fig15 -> [ Per_benchmark.table opts ]
      | Perf -> [ Perf_study.table opts; Perf_study.stall_table opts ]
      | Encoding -> [ Encoding.table opts ]
      | Limit -> [ Limit.table opts ]
      | Ablation -> [ Ablation.table opts ]
      | Divergence -> [ Divergence.table opts ]
      | Pressure -> [ Pressure_study.table opts ]
      | Scheduling -> [ Scheduling.table opts ]
      | Tables ->
        [ Config_tables.table2 (); Config_tables.table3 opts.Options.params;
          Config_tables.table4 opts.Options.params ])

let clear_caches () =
  Sweep.clear_caches ();
  Perf_study.clear_cache ()

let metrics_table () = Obs.Metrics.to_table (Obs.Metrics.snapshot ())
