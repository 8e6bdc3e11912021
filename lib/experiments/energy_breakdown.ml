(* Breakdown order: MRF, ORF, RFC, LRF. *)
let levels = [ Energy.Model.Mrf; Energy.Model.Orf; Energy.Model.Rfc; Energy.Model.Lrf ]

(* Per level, the mean per-benchmark (access / baseline total) and
   (wire / baseline total). *)
let components ?(entries = 3) (opts : Options.t) =
  let share e (level, part) =
    let bd = (Sweep.run opts e Sweep.Sw_three_split ~entries).Sweep.energy in
    let le = List.find (fun le -> le.Energy.Counts.level = level) bd.Energy.Counts.levels in
    Sweep.vs_baseline opts e
      (match part with `Access -> le.Energy.Counts.access | `Wire -> le.Energy.Counts.wire)
  in
  let keys = List.concat_map (fun l -> [ (l, `Access); (l, `Wire) ]) levels in
  let means = Sweep.means opts keys share in
  List.map (fun l -> (l, List.assoc (l, `Access) means, List.assoc (l, `Wire) means)) levels

let table ?entries opts =
  let t =
    Util.Table.create
      ~title:
        "Figure 14: energy breakdown of the most efficient design (SW split LRF), normalized to baseline"
      ~columns:[ "Level"; "Access"; "Wire"; "Total" ]
  in
  List.iter
    (fun (level, access, wire) ->
      if access +. wire > 0.0 then
        Util.Table.add_float_row t (Energy.Model.level_name level) ~decimals:4
          [ access; wire; access +. wire ])
    (components ?entries opts);
  t

let mrf_share ?entries opts =
  let comps = components ?entries opts in
  let total = List.fold_left (fun acc (_, a, w) -> acc +. a +. w) 0.0 comps in
  let mrf =
    List.fold_left
      (fun acc (level, a, w) -> if level = Energy.Model.Mrf then acc +. a +. w else acc)
      0.0 comps
  in
  Util.Stats.ratio mrf total
