let entries_range = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let levels = [ Energy.Model.Lrf; Energy.Model.Rfc; Energy.Model.Orf; Energy.Model.Mrf ]

(* One level's accesses under [scheme], normalized to the baseline's
   total in the same direction on the same benchmark. *)
let access_ratio opts e (direction, scheme, entries, level) =
  let base = (Sweep.run opts e Sweep.Baseline ~entries:1).Sweep.traffic.Sim.Traffic.counts in
  let this = (Sweep.run opts e scheme ~entries).Sweep.traffic.Sim.Traffic.counts in
  let n, total_base =
    match direction with
    | `Reads -> (Energy.Counts.reads this level, Energy.Counts.total_reads base)
    | `Writes -> (Energy.Counts.writes this level, Energy.Counts.total_writes base)
  in
  Util.Stats.ratio (float_of_int n) (float_of_int total_base)

(* Both tables of a figure from one fan-out: rows = entry counts,
   columns = per-level percentages for the HW and SW schemes being
   compared, one table per direction. *)
let breakdown_tables opts ~hw ~sw ~with_lrf titles =
  let directions = [ `Reads; `Writes ] in
  let keys =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun entries ->
            List.concat_map (fun s -> List.map (fun l -> (d, s, entries, l)) levels) [ hw; sw ])
          entries_range)
      directions
  in
  let means = Sweep.means opts keys (access_ratio opts) in
  let columns =
    [ "Entries" ]
    @ (if with_lrf then [ "HW LRF%" ] else [])
    @ [ "HW RFC%"; "HW MRF%" ]
    @ (if with_lrf then [ "SW LRF%" ] else [])
    @ [ "SW ORF%"; "SW MRF%"; "HW total%"; "SW total%" ]
  in
  List.map2
    (fun d title ->
      let t = Util.Table.create ~title ~columns in
      List.iter
        (fun entries ->
          let pct s l = 100.0 *. List.assoc (d, s, entries, l) means in
          let cells s upper =
            (if with_lrf then [ pct s Energy.Model.Lrf ] else [])
            @ [ pct s upper; pct s Energy.Model.Mrf ]
          in
          let total s = List.fold_left (fun acc l -> acc +. pct s l) 0.0 levels in
          Util.Table.add_float_row t (string_of_int entries) ~decimals:1
            (cells hw Energy.Model.Rfc @ cells sw Energy.Model.Orf @ [ total hw; total sw ]))
        entries_range;
      t)
    directions titles

let fig11_tables opts =
  breakdown_tables opts ~hw:Sweep.Hw_two ~sw:Sweep.Sw_two ~with_lrf:false
    [
      "Figure 11(a): two-level hierarchy reads (% of baseline reads)";
      "Figure 11(b): two-level hierarchy writes (% of baseline writes)";
    ]

let fig12_tables opts =
  breakdown_tables opts ~hw:Sweep.Hw_three ~sw:Sweep.Sw_three_split ~with_lrf:true
    [
      "Figure 12(a): three-level hierarchy reads (% of baseline reads)";
      "Figure 12(b): three-level hierarchy writes (% of baseline writes)";
    ]
