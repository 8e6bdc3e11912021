let table (opts : Options.t) =
  let t =
    Util.Table.create ~title:"Register pressure and MRF occupancy (128 KB MRF, Table 2)"
      ~columns:[ "Benchmark"; "Registers"; "Peak live"; "Resident warps" ]
  in
  List.iter (Util.Table.add_row t)
    (Sweep.per_bench opts (fun (e : Workloads.Registry.entry) ->
         let ctx = Sweep.context e in
         let p = Analysis.Pressure.compute ctx.Alloc.Context.kernel ctx.Alloc.Context.cfg in
         [
           e.Workloads.Registry.name;
           string_of_int p.Analysis.Pressure.registers_used;
           string_of_int p.Analysis.Pressure.max_live;
           string_of_int
             (min 32 (Analysis.Pressure.resident_warps p.Analysis.Pressure.max_live));
         ]));
  t
