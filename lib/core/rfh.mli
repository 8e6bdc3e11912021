(** Compile-time managed multi-level register file hierarchy
    (Gebhart, Keckler & Dally, MICRO 2011) — public façade.

    The typical flow:

    {[
      let kernel = (* build with Rfh.Ir.Builder or pick a benchmark *) in
      let compiled = Rfh.compile kernel in
      let report = Rfh.measure compiled in
      Format.printf "normalized energy: %.3f@." report.Rfh.normalized_energy
    ]}

    The submodules expose the full system:
    - {!Ir}: the PTX-like IR and kernel builder;
    - {!Analysis}: CFG, dominance, liveness, reaching defs, du-chains;
    - {!Strand}: strand partitioning (Sec. 4.1);
    - {!Alloc}: the energy-driven allocator (Sec. 4) and its verifier;
    - {!Energy}: the Table 3/4 energy model;
    - {!Sim}: traffic accounting (including the hardware RFC baseline)
      and the SM timing simulator;
    - {!Workloads}: the 36 Table-1 benchmarks and a random generator;
    - {!Experiments}: drivers regenerating every paper table/figure. *)

module Util = Util
module Ir = Ir
module Analysis = Analysis
module Strand = Strand
module Energy = Energy
module Alloc = Alloc
module Transform = Transform
module Sim = Sim
module Workloads = Workloads
module Experiments = Experiments

type compiled = {
  context : Alloc.Context.t;
  config : Alloc.Config.t;
  placement : Alloc.Placement.t;
  stats : Alloc.Allocator.stats;
}

val compile : ?config:Alloc.Config.t -> Ir.Kernel.t -> compiled
(** Analyse the kernel, partition it into strands and run the
    allocator.  The default configuration is the paper's most
    efficient: 3 ORF entries per thread, split LRF, partial-range and
    read-operand allocation enabled.
    @raise Failure if the resulting placement fails verification —
    this indicates a library bug, not a user error. *)

type measurement = {
  traffic : Sim.Traffic.result;
  baseline : Sim.Traffic.result;
  total_energy_pj : float;     (** per-128-bit-access units, see Energy.Counts *)
  baseline_energy_pj : float;
  normalized_energy : float;
      (** 1.0 = single-level register file (also when the kernel has no
          register traffic at all) *)
  savings_percent : float;
}

val measure : ?warps:int -> ?seed:int -> compiled -> measurement
(** Execute the kernel's warps, count hierarchy traffic and convert it
    to energy using the compile configuration's parameters. *)

val benchmark : string -> Ir.Kernel.t
(** Look up a Table-1 benchmark kernel by name.
    @raise Not_found on unknown names (see
    {!Workloads.Registry.names}). *)
