type t = {
  kernel : Ir.Kernel.t;
  cfg : Analysis.Cfg.t;
  dominance : Analysis.Dominance.t;
  reaching : Analysis.Reaching.t;
  duchain : Analysis.Duchain.t;
  partition : Strand.Partition.t;
  must_defined : Strand.Must_defined.t;
}

let create ?boundary_kinds kernel =
  let span = Obs.Span.with_span in
  let cfg = span "cfg" (fun () -> Analysis.Cfg.of_kernel kernel) in
  let dominance = span "dominance" (fun () -> Analysis.Dominance.compute cfg) in
  let reaching = span "reaching" (fun () -> Analysis.Reaching.compute kernel cfg dominance) in
  let duchain = span "duchain" (fun () -> Analysis.Duchain.compute kernel reaching) in
  let partition =
    span "partition" (fun () -> Strand.Partition.compute ?kinds:boundary_kinds kernel cfg reaching)
  in
  let must_defined =
    span "must_defined" (fun () -> Strand.Must_defined.compute kernel cfg partition)
  in
  { kernel; cfg; dominance; reaching; duchain; partition; must_defined }
