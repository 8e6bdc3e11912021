type variant = {
  label : string;
  normalized_energy : float;
  delta_vs_full : float;
}

let sw_ratio (opts : Options.t) config e =
  Sweep.vs_baseline opts e
    (Sweep.traffic_energy opts (Sweep.contexts e) ~orf_entries:config.Alloc.Config.orf_entries
       (Sweep.sw_scheme config))

let hw_tagless_ratio (opts : Options.t) ~entries e =
  let r = Sweep.run opts e Sweep.Hw_two ~entries in
  Sweep.vs_baseline opts e
    (Energy.Counts.energy Energy.Params.tagless ~orf_entries:entries
       r.Sweep.traffic.Sim.Traffic.counts)
      .Energy.Counts.total

let compute ?(entries = 3) (opts : Options.t) =
  let sw ~lrf ~partial ~read_op =
    sw_ratio opts
      (Alloc.Config.make ~orf_entries:entries ~lrf ~partial_ranges:partial ~read_operands:read_op
         ~params:opts.Options.params ())
  in
  let variants =
    [
      ( "full design (split LRF, partial ranges, read operands)",
        sw ~lrf:Alloc.Config.Split ~partial:true ~read_op:true );
      ( "baseline algorithm only (Sec. 4.2)",
        sw ~lrf:Alloc.Config.Split ~partial:false ~read_op:false );
      ("+ partial ranges only (Sec. 4.3)", sw ~lrf:Alloc.Config.Split ~partial:true ~read_op:false);
      ("+ read operands only (Sec. 4.4)", sw ~lrf:Alloc.Config.Split ~partial:false ~read_op:true);
      ( "unified LRF instead of split (Sec. 6.3)",
        sw ~lrf:Alloc.Config.Unified ~partial:true ~read_op:true );
      ("no LRF (two-level)", sw ~lrf:Alloc.Config.No_lrf ~partial:true ~read_op:true);
      ("HW RFC with free tags (tag-energy ablation)", hw_tagless_ratio opts ~entries);
      ("HW RFC with tag energy", fun e -> Sweep.energy_ratio opts e Sweep.Hw_two ~entries);
    ]
  in
  let means = Sweep.means opts variants (fun e (_, ratio) -> ratio e) in
  let full = snd (List.hd means) in
  List.map
    (fun ((label, _), v) -> { label; normalized_energy = v; delta_vs_full = 100.0 *. (v -. full) })
    means

let table ?entries opts =
  let t =
    Util.Table.create
      ~title:"Allocator ablation (3-entry configurations; 1.0 = single-level RF)"
      ~columns:[ "Variant"; "Normalized energy"; "Points vs full design" ]
  in
  List.iter
    (fun v ->
      Util.Table.add_row t
        [
          v.label;
          Printf.sprintf "%.3f" v.normalized_energy;
          Printf.sprintf "%+.1f" v.delta_vs_full;
        ])
    (compute ?entries opts);
  t
