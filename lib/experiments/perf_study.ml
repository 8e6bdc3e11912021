let active_range = [ 1; 2; 4; 6; 8; 16; 32 ]

(* Memoize the full simulator result, not just the IPC scalar: the
   stall table re-reads the same (bench, config) runs the IPC table
   triggered, so each configuration is simulated exactly once. *)
let result_cache : (string * int * Sim.Perf.policy * int, Sim.Perf.result) Util.Memo.t =
  Util.Memo.create ~name:"perf_study.result" 64

let result (opts : Options.t) (e : Workloads.Registry.entry) ~policy ~active =
  let key = (e.Workloads.Registry.name, active, policy, opts.Options.seed) in
  Util.Memo.find_or_compute result_cache key (fun () ->
      let scheduler = if active >= 32 then Sim.Perf.Single_level else Sim.Perf.Two_level active in
      (* Runs use this domain's scratch, so every run on this worker
         reuses one set of simulation buffers across the whole sweep. *)
      Sim.Perf.run ~warps:32 ~seed:opts.Options.seed ~max_dynamic_per_warp:600 ~scheduler ~policy
        (Sweep.context e))

let ipc opts e ~policy ~active = (result opts e ~policy ~active).Sim.Perf.ipc

let ipc_ratio opts e ~policy ~active =
  let single = ipc opts e ~policy:Sim.Perf.On_dependence ~active:32 in
  Util.Stats.ratio (ipc opts e ~policy ~active) single

let stall_share opts e ~policy ~active cause =
  let r = result opts e ~policy ~active in
  let total = Sim.Perf.breakdown_total r.Sim.Perf.stalls in
  if total = 0 then 0.0
  else 100.0 *. float_of_int (Sim.Perf.breakdown_get r.Sim.Perf.stalls cause) /. float_of_int total

let policies = [ Sim.Perf.On_dependence; Sim.Perf.At_strand_boundaries ]

let stall_configs =
  [ (Sim.Perf.On_dependence, 32); (Sim.Perf.On_dependence, 8); (Sim.Perf.At_strand_boundaries, 8) ]

let tables opts =
  let keys =
    List.concat_map (fun active -> List.map (fun p -> `Ipc (p, active)) policies) active_range
    @ List.concat_map
        (fun cause -> List.map (fun (p, active) -> `Stall (p, active, cause)) stall_configs)
        Obs.Timeline.all_states
  in
  let cell e = function
    | `Ipc (policy, active) -> ipc_ratio opts e ~policy ~active
    | `Stall (policy, active, cause) -> stall_share opts e ~policy ~active cause
  in
  let means = Sweep.means opts keys cell in
  let ipc_table =
    Util.Table.create
      ~title:"Two-level warp scheduler: mean IPC relative to the single-level scheduler"
      ~columns:[ "Active warps"; "HW policy (on dependence)"; "SW policy (strand boundaries)" ]
  in
  List.iter
    (fun active ->
      Util.Table.add_float_row ipc_table (string_of_int active) ~decimals:3
        (List.map (fun p -> List.assoc (`Ipc (p, active)) means) policies))
    active_range;
  let stall_table =
    Util.Table.create
      ~title:"Where the cycles went: mean % of warp-cycles per stall cause (32 warps)"
      ~columns:
        [ "Stall cause"; "Single-level"; "Two-level 8 (HW policy)"; "Two-level 8 (SW policy)" ]
  in
  List.iter
    (fun cause ->
      Util.Table.add_float_row stall_table (Obs.Timeline.state_name cause) ~decimals:2
        (List.map (fun (p, active) -> List.assoc (`Stall (p, active, cause)) means) stall_configs))
    Obs.Timeline.all_states;
  [ ipc_table; stall_table ]

let clear_cache () = Util.Memo.reset result_cache
