type result = {
  fixed_best : float;
  ideal_all_lrf : float;
  ideal_all_orf : float;
  variable_orf_oracle : float;
  variable_orf_realistic : float;
  hw_flush_backward : float;
  hw_keep_backward : float;
  sw_past_backward : float;
  sw_never_flush : float;
  scheduling_ideal_8at3 : float;
  scheduling_real_5at5 : float;
}

(* Re-price the baseline's access counts as if every operand lived at
   the given level (the idealized bounds). *)
let repriced_ratio (opts : Options.t) e ~level ~entries =
  let params = opts.Options.params in
  let counts = (Sweep.run opts e Sweep.Baseline ~entries:1).Sweep.traffic.Sim.Traffic.counts in
  let dp_list = match level with Energy.Model.Lrf -> [ Energy.Model.Private ] | _ -> [ Energy.Model.Private; Energy.Model.Shared ] in
  let total = ref 0.0 in
  List.iter
    (fun dp ->
      (* The LRF bound charges even shared-datapath operands at the
         private LRF wire distance: it is an unreachable lower bound. *)
      let r =
        Energy.Counts.reads_dp counts Energy.Model.Mrf dp
        + (if dp = Energy.Model.Private && level = Energy.Model.Lrf then
             Energy.Counts.reads_dp counts Energy.Model.Mrf Energy.Model.Shared
           else 0)
      in
      let w =
        Energy.Counts.writes_dp counts Energy.Model.Mrf dp
        + (if dp = Energy.Model.Private && level = Energy.Model.Lrf then
             Energy.Counts.writes_dp counts Energy.Model.Mrf Energy.Model.Shared
           else 0)
      in
      total :=
        !total
        +. (float_of_int r *. Energy.Model.read_energy params ~orf_entries:entries level dp)
        +. (float_of_int w *. Energy.Model.write_energy params ~orf_entries:entries level dp))
    dp_list;
  Sweep.vs_baseline opts e !total

(* Oracle per-strand ORF sizing: for each strand pick the entry count
   that minimizes that strand's energy. *)
let variable_orf_ratio (opts : Options.t) e =
  let params = opts.Options.params in
  let runs =
    List.map (fun entries -> (entries, Sweep.run opts e Sweep.Sw_three_split ~entries))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let num_strands =
    match runs with
    | (_, r) :: _ -> Array.length r.Sweep.traffic.Sim.Traffic.per_strand
    | [] -> 0
  in
  let oracle_total = ref 0.0 in
  for s = 0 to num_strands - 1 do
    let best =
      List.fold_left
        (fun acc (entries, r) ->
          let c = r.Sweep.traffic.Sim.Traffic.per_strand.(s) in
          let energy = (Energy.Counts.energy params ~orf_entries:entries c).Energy.Counts.total in
          min acc energy)
        infinity runs
    in
    if best < infinity then oracle_total := !oracle_total +. best
  done;
  Sweep.vs_baseline opts e !oracle_total

(* Sec. 7's variable scheme under a realistic scheduler: compile for
   the full 8-entry namespace with MRF mirroring; 8 active warps share
   a pool sized like the fixed design's 8 x 3 entries; accesses priced
   at the 3-entry row, as in the oracle comparison. *)
let variable_realistic_ratio (opts : Options.t) e =
  let config =
    Alloc.Config.make ~orf_entries:8 ~lrf:Alloc.Config.Split ~params:opts.Options.params
      ~orf_cost_entries:3 ~mirror_mrf:true ()
  in
  let energy =
    List.fold_left
      (fun acc ctx ->
        let placement = Alloc.Allocator.place config ctx in
        let r =
          Sim.Variable_orf.run ~active:8 ~warps:opts.Options.warps ~seed:opts.Options.seed
            ~pool_entries:24 ~config ~placement ctx
        in
        acc
        +. (Energy.Counts.energy opts.Options.params ~orf_entries:3 r.Sim.Variable_orf.counts)
             .Energy.Counts.total)
      0.0 (Sweep.contexts e)
  in
  Sweep.vs_baseline opts e energy

let custom_sw_ratio (opts : Options.t) ?boundary_kinds ~orf_entries e =
  let config =
    Alloc.Config.make ~orf_entries ~lrf:Alloc.Config.Split ~params:opts.Options.params
      ~orf_cost_entries:3 ()
  in
  let ctxs =
    List.map (Alloc.Context.create ?boundary_kinds) (Lazy.force e.Workloads.Registry.kernels)
  in
  Sweep.vs_baseline opts e (Sweep.traffic_energy opts ctxs ~orf_entries:3 (Sweep.sw_scheme config))

let hw_ratio (opts : Options.t) ~flush_on_backward e =
  let hw =
    Sim.Traffic.Hw
      { (Sim.Traffic.hw_defaults ~rfc_entries:3) with
        Sim.Traffic.flush_on_backward_branch = flush_on_backward }
  in
  Sweep.vs_baseline opts e
    (Sweep.traffic_energy opts (Sweep.contexts e) ~orf_entries:3 (fun _ -> hw))

(* One fan-out; the cells are in the record's field order. *)
let compute (opts : Options.t) =
  let cells =
    [
      (fun e -> Sweep.energy_ratio opts e Sweep.Sw_three_split ~entries:3);
      (fun e -> repriced_ratio opts e ~level:Energy.Model.Lrf ~entries:1);
      (fun e -> repriced_ratio opts e ~level:Energy.Model.Orf ~entries:5);
      variable_orf_ratio opts;
      variable_realistic_ratio opts;
      hw_ratio opts ~flush_on_backward:true;
      hw_ratio opts ~flush_on_backward:false;
      custom_sw_ratio opts ~orf_entries:3
        ~boundary_kinds:{ Strand.Partition.long_latency = true; backward = false; merge = true };
      custom_sw_ratio opts ~orf_entries:3
        ~boundary_kinds:{ Strand.Partition.long_latency = false; backward = true; merge = false };
      custom_sw_ratio opts ~orf_entries:8;
      custom_sw_ratio opts ~orf_entries:5;
    ]
  in
  match List.map snd (Sweep.means opts cells (fun e cell -> cell e)) with
  | [ fixed_best; ideal_all_lrf; ideal_all_orf; variable_orf_oracle; variable_orf_realistic;
      hw_flush_backward; hw_keep_backward; sw_past_backward; sw_never_flush;
      scheduling_ideal_8at3; scheduling_real_5at5 ] ->
    { fixed_best; ideal_all_lrf; ideal_all_orf; variable_orf_oracle; variable_orf_realistic;
      hw_flush_backward; hw_keep_backward; sw_past_backward; sw_never_flush;
      scheduling_ideal_8at3; scheduling_real_5at5 }
  | _ -> assert false

let table opts =
  let r = compute opts in
  let t =
    Util.Table.create ~title:"Sec. 7: limit study (normalized energy; 1.0 = single-level RF)"
      ~columns:[ "Configuration"; "Normalized energy"; "Savings %" ]
  in
  let row name v =
    Util.Table.add_row t [ name; Printf.sprintf "%.3f" v; Printf.sprintf "%.1f" (100.0 *. (1.0 -. v)) ]
  in
  row "fixed 3-entry ORF, split LRF (shipping design)" r.fixed_best;
  row "ideal: every access at LRF cost" r.ideal_all_lrf;
  row "ideal: every access at 5-entry ORF cost" r.ideal_all_orf;
  row "oracle variable per-strand ORF sizing" r.variable_orf_oracle;
  row "variable ORF, realistic scheduler (8x3 pool, MRF mirrors)" r.variable_orf_realistic;
  row "HW RFC, flush at backward branches" r.hw_flush_backward;
  row "HW RFC, values persist past backward branches" r.hw_keep_backward;
  row "SW allocation past backward branches" r.sw_past_backward;
  row "SW never-flush idealization" r.sw_never_flush;
  row "scheduling ideal: 8-entry ORF at 3-entry cost" r.scheduling_ideal_8at3;
  row "scheduling realistic: 5-entry effective ORF at 3-entry cost" r.scheduling_real_5at5;
  t
