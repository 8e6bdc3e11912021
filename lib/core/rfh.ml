module Util = Util
module Ir = Ir
module Analysis = Analysis
module Strand = Strand
module Energy = Energy
module Alloc = Alloc
module Transform = Transform
module Sim = Sim
module Workloads = Workloads
module Experiments = Experiments

type compiled = {
  context : Alloc.Context.t;
  config : Alloc.Config.t;
  placement : Alloc.Placement.t;
  stats : Alloc.Allocator.stats;
}

let compile ?(config = Alloc.Config.make ()) kernel =
  let context = Alloc.Context.create kernel in
  let placement, stats = Alloc.Allocator.run config context in
  (match Alloc.Verify.check config context placement with
   | Ok () -> ()
   | Error errs ->
     failwith
       (Printf.sprintf "Rfh.compile: placement verification failed (library bug):\n%s"
          (String.concat "\n" errs)));
  { context; config; placement; stats }

type measurement = {
  traffic : Sim.Traffic.result;
  baseline : Sim.Traffic.result;
  total_energy_pj : float;
  baseline_energy_pj : float;
  normalized_energy : float;
  savings_percent : float;
}

let measure ?(warps = 32) ?(seed = 0x5eed) compiled =
  let { context; config; placement; _ } = compiled in
  let traffic =
    Sim.Traffic.run ~warps ~seed context (Sim.Traffic.Sw { config; placement })
  in
  let baseline = Sim.Traffic.run ~warps ~seed context Sim.Traffic.Baseline in
  let params = config.Alloc.Config.params in
  let entries = config.Alloc.Config.orf_entries in
  let total_energy_pj =
    (Energy.Counts.energy params ~orf_entries:entries traffic.Sim.Traffic.counts)
      .Energy.Counts.total
  in
  let baseline_energy_pj =
    (Energy.Counts.energy params ~orf_entries:entries baseline.Sim.Traffic.counts)
      .Energy.Counts.total
  in
  (* A kernel with no register traffic saves nothing. *)
  let normalized_energy =
    if baseline_energy_pj = 0.0 then 1.0 else total_energy_pj /. baseline_energy_pj
  in
  {
    traffic;
    baseline;
    total_energy_pj;
    baseline_energy_pj;
    normalized_energy;
    savings_percent = 100.0 *. (1.0 -. normalized_energy);
  }

let benchmark name =
  match Workloads.Registry.find name with
  | Some e -> Lazy.force e.Workloads.Registry.kernel
  | None -> raise Not_found
