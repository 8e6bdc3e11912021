let terms (cfg : Config.t) =
  let energy f level ~orf_entries dp =
    try f cfg.Config.params ~orf_entries level dp with Invalid_argument _ -> Float.nan
  in
  let read = energy Energy.Model.read_energy and write = energy Energy.Model.write_energy in
  let e = Config.cost_entries cfg and t = Array.make 10 0.0 in
  List.iteri
    (fun i dp ->
      let mrf_read = read Energy.Model.Mrf ~orf_entries:1 dp in
      t.(i) <- mrf_read -. read Energy.Model.Orf ~orf_entries:e dp;
      t.(2 + i) <- write Energy.Model.Orf ~orf_entries:e dp;
      t.(4 + i) <- mrf_read -. read Energy.Model.Lrf ~orf_entries:1 dp;
      t.(6 + i) <- write Energy.Model.Lrf ~orf_entries:1 dp;
      t.(8 + i) <- write Energy.Model.Mrf ~orf_entries:1 dp)
    [ Energy.Model.Private; Energy.Model.Shared ];
  t

let base = function `Orf -> 0 | `Lrf -> 4
let dp = function Energy.Model.Private -> 0 | Energy.Model.Shared -> 1

let write_unit cfg ~target ~producer_dp ~reads ~mrf_write_required =
  let t = terms cfg and b = base target and p = dp producer_dp in
  let savings = List.fold_left (fun acc d -> acc +. t.(b + dp d)) 0.0 reads -. t.(b + 2 + p) in
  if mrf_write_required then savings else savings +. t.(8 + p)

let read_unit cfg ~reads =
  match reads with
  | [] | [ _ ] -> neg_infinity
  | first_dp :: rest ->
    let t = terms cfg in
    (* The fill write is charged at the first consumer's datapath. *)
    List.fold_left (fun acc d -> acc +. t.(dp d)) 0.0 rest -. t.(2 + dp first_dp)

let priority ~savings ~first ~last = savings /. float_of_int (Int.max 1 (last - first))
