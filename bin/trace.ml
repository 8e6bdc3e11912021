(* trace: one benchmark's dynamic block sequences per warp and its
   control-flow-edge profile (the paper's Sec. 5.1 methodology). *)

open Cmdliner

let edge_table trace =
  let t =
    Util.Table.create ~title:"Control-flow edge frequencies" ~columns:[ "Edge"; "Executions" ]
  in
  List.iter
    (fun ((a, b), n) ->
      let from_ = if a < 0 then "entry" else Printf.sprintf "BB%d" a in
      Util.Table.add_row t [ Printf.sprintf "%s -> BB%d" from_ b; string_of_int n ])
    (Sim.Trace.edge_profile trace);
  t

let cmd =
  let doc =
    "Capture a benchmark's execution trace (Sec. 5.1 methodology): dynamic block sequences \
     per warp plus the control-flow-edge frequency profile."
  in
  let run name warps seed =
    let k = Lazy.force (Cli.find_bench name).Workloads.Registry.kernel in
    let trace = Sim.Trace.capture ~warps ~seed k in
    Cli.emit [ Cli.Text (Sim.Trace.to_string trace ^ "\n"); Cli.Table (edge_table trace) ]
  in
  Cmd.v (Cmd.info "trace" ~doc ~exits:Cli.exits)
    Term.(const run $ Cli.bench_name $ Cli.warps () $ Cli.seed)
