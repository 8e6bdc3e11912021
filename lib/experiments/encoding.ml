type result = {
  rf_saving : float;
  chip_saving : float;
  best_case_overhead : float;
  worst_case_overhead : float;
  net_best : float;
  net_worst : float;
  strand_bits_per_instr : float;
}

let compute ?(entries = 3) (opts : Options.t) =
  let model = Energy.Chip.paper in
  let ratio e entries = Sweep.energy_ratio opts e Sweep.Sw_three_split ~entries in
  let rf_saving = 1.0 -. List.assoc entries (Sweep.means opts [ entries ] ratio) in
  let chip_saving = Energy.Chip.chip_saving model ~rf_saving in
  let best = Energy.Chip.encoding_overhead model ~extra_bits:1 in
  let worst = Energy.Chip.encoding_overhead model ~extra_bits:5 in
  (* The fan-out above compiled every context; this only reads them. *)
  let strands, instrs =
    List.fold_left
      (fun acc (e : Workloads.Registry.entry) ->
        List.fold_left
          (fun (s, n) ctx ->
            ( s + Strand.Partition.num_strands ctx.Alloc.Context.partition,
              n + Ir.Kernel.instr_count ctx.Alloc.Context.kernel ))
          acc (Sweep.contexts e))
      (0, 0) opts.Options.benchmarks
  in
  {
    rf_saving;
    chip_saving;
    best_case_overhead = best;
    worst_case_overhead = worst;
    net_best = chip_saving -. best;
    net_worst = chip_saving -. worst;
    strand_bits_per_instr = Util.Stats.ratio (float_of_int strands) (float_of_int instrs);
  }

let table ?entries opts =
  let r = compute ?entries opts in
  let t =
    Util.Table.create ~title:"Sec. 6.5: instruction-encoding overhead (chip-level fractions)"
      ~columns:[ "Quantity"; "Value" ]
  in
  let pct x = Printf.sprintf "%.2f%%" (100.0 *. x) in
  Util.Table.add_row t [ "register-file energy saving"; pct r.rf_saving ];
  Util.Table.add_row t [ "chip-level saving before overhead"; pct r.chip_saving ];
  Util.Table.add_row t [ "encoding overhead, best case (1 bit)"; pct r.best_case_overhead ];
  Util.Table.add_row t [ "encoding overhead, worst case (5 bits)"; pct r.worst_case_overhead ];
  Util.Table.add_row t [ "net chip saving, best case"; pct r.net_best ];
  Util.Table.add_row t [ "net chip saving, worst case"; pct r.net_worst ];
  Util.Table.add_row t
    [ "strand boundaries per static instruction"; Printf.sprintf "%.3f" r.strand_bits_per_instr ];
  t
