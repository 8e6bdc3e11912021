let entries_range = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let schemes = [ Sweep.Hw_two; Sweep.Hw_three; Sweep.Sw_two; Sweep.Sw_three_unified; Sweep.Sw_three_split ]

let ratio opts e (scheme, entries) = Sweep.energy_ratio opts e scheme ~entries

let table opts =
  let t =
    Util.Table.create
      ~title:"Figure 13: normalized access+wire energy vs entries per thread (1.0 = single-level RF)"
      ~columns:("Entries" :: List.map Sweep.scheme_name schemes)
  in
  let keys = List.concat_map (fun n -> List.map (fun s -> (s, n)) schemes) entries_range in
  let means = Sweep.means opts keys (ratio opts) in
  List.iter
    (fun n ->
      Util.Table.add_float_row t (string_of_int n) ~decimals:3
        (List.map (fun s -> List.assoc (s, n) means) schemes))
    entries_range;
  t

let best opts scheme =
  List.fold_left
    (fun (be, bv) ((_, entries), v) -> if v < bv then (entries, v) else (be, bv))
    (0, infinity)
    (Sweep.means opts (List.map (fun n -> (scheme, n)) entries_range) (ratio opts))
