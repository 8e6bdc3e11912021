type row = {
  name : string;
  simd_efficiency : float;
  divergent_branches : int;
  uniform_ratio : float;
  divergent_ratio : float;
}

let compute ?(entries = 3) (opts : Options.t) =
  let config =
    Alloc.Config.make ~orf_entries:entries ~lrf:Alloc.Config.Split ~params:opts.Options.params ()
  in
  let energy c =
    (Energy.Counts.energy opts.Options.params ~orf_entries:entries c).Energy.Counts.total
  in
  Sweep.per_bench opts (fun (e : Workloads.Registry.entry) ->
      let uniform_ratio = Sweep.energy_ratio opts e Sweep.Sw_three_split ~entries in
      let warps = min 8 opts.Options.warps in
      let base_e = ref 0.0 and sw_e = ref 0.0 in
      let eff = ref [] and div = ref 0 in
      List.iter
        (fun (ctx : Alloc.Context.t) ->
          let r = Sim.Simt.traffic ~warps ~seed:opts.Options.seed ctx in
          let price p = energy (Sim.Traffic.price ctx p r.Sim.Simt.clusters) in
          base_e := !base_e +. price (Alloc.Placement.baseline ctx.Alloc.Context.kernel);
          sw_e := !sw_e +. price (Alloc.Allocator.place config ctx);
          eff := r.Sim.Simt.stats.Sim.Simt.simd_efficiency :: !eff;
          div := !div + r.Sim.Simt.stats.Sim.Simt.divergent_branches)
        (Sweep.contexts e);
      {
        name = e.Workloads.Registry.name;
        simd_efficiency = Util.Stats.mean !eff;
        divergent_branches = !div;
        uniform_ratio;
        divergent_ratio = Util.Stats.ratio !sw_e !base_e;
      })

let table ?entries opts =
  let rows = compute ?entries opts in
  let t =
    Util.Table.create
      ~title:"Divergence sensitivity: SW/baseline energy under SIMT divergence (extension)"
      ~columns:
        [ "Benchmark"; "SIMD efficiency"; "Divergent branches"; "Uniform ratio"; "Divergent ratio" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          r.name;
          Printf.sprintf "%.3f" r.simd_efficiency;
          string_of_int r.divergent_branches;
          Printf.sprintf "%.3f" r.uniform_ratio;
          Printf.sprintf "%.3f" r.divergent_ratio;
        ])
    rows;
  let mean f = Util.Stats.mean (List.map f rows) in
  Util.Table.add_row t
    [
      "MEAN";
      Printf.sprintf "%.3f" (mean (fun r -> r.simd_efficiency));
      "";
      Printf.sprintf "%.3f" (mean (fun r -> r.uniform_ratio));
      Printf.sprintf "%.3f" (mean (fun r -> r.divergent_ratio));
    ];
  t
