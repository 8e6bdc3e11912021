(** The compiler analyses of one kernel, computed once and shared by
    the allocator, the verifier and the simulator.

    [create] runs what the allocator and the verifier read: the CFG,
    dominance, reaching definitions, def-use chains, the strand
    partition and must-defined, each under an {!Obs.Span} of that name.
    Liveness is not among them: only the hardware RFC baseline and the
    pressure study read it, and each computes it where it runs
    ({!Analysis.Liveness}). *)

type t = {
  kernel : Ir.Kernel.t;
  cfg : Analysis.Cfg.t;
  dominance : Analysis.Dominance.t;
  reaching : Analysis.Reaching.t;
  duchain : Analysis.Duchain.t;
  partition : Strand.Partition.t;
  must_defined : Strand.Must_defined.t;
}

val create : ?boundary_kinds:Strand.Partition.boundary_kinds -> Ir.Kernel.t -> t
(** [boundary_kinds] selects the strand-boundary model (default: the
    paper's full definition); the Sec. 7 limit studies relax it. *)
