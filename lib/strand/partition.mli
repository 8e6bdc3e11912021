(** Strand partitioning (paper Sec. 4.1).

    A strand is a sequence of instructions in which every dependence on
    a long-latency instruction is on an operation issued in a previous
    strand.  Strand boundaries are placed:

    - before the first consumer of a long-latency value produced in the
      current strand (the warp is descheduled there until all pending
      long-latency operations resolve);
    - after backward branches, and at blocks targeted by backward
      branches (strands may not contain backward branches);
    - at control-flow merges where the set of pending long-latency
      operations differs between incoming paths (Fig. 5(b)) — the extra
      endpoint that resolves the uncertainty.

    Strands are reported as layout intervals of instruction ids: within
    a strand only forward branches occur, so every execution path
    between two same-strand instructions stays inside the interval,
    which is what makes interval-based ORF occupancy (Fig. 7) sound.

    The pending-operation dataflow needs no fixpoint: every CFG cycle
    passes through a backward-branch target, where the pending set is
    cleared, so a single pass in layout order is exact.

    Cost model: only long-latency definitions are ever pending (about
    15% of the definition sites of generated kernels), so the pending
    sets range over those sites alone: each block's exit set is a row
    of one [blocks x long-latency sites] {!Util.Bitset.matrix}, and the
    pass works in three scratch sets.  A read consumes a pending value
    if a site that {!Analysis.Reaching.nth_reaching} lists is set, a
    walk that allocates nothing.  The result is flat: per-instruction
    strand ids and boundary flags and the strand count, all
    immediates. *)

type t

type boundary_kinds = {
  long_latency : bool;  (** boundaries before same-strand long-latency consumers *)
  backward : bool;      (** boundaries at backward branches and their targets *)
  merge : bool;         (** extra endpoints at uncertain merges (Fig. 5(b)) *)
}

val compute : ?kinds:boundary_kinds -> Ir.Kernel.t -> Analysis.Cfg.t -> Analysis.Reaching.t -> t
(** [kinds] defaults to every kind: the paper's strand definition.
    Disabling boundary kinds yields the idealized partitions of the
    Sec. 7 limit study: without [long_latency] boundaries, values
    survive deschedules (the never-flush idealization); without
    [backward], values may live in the ORF across loop iterations. *)

val num_strands : t -> int

val strand_of_instr : t -> int -> int

val starts_strand : t -> int -> bool
(** [true] iff a strand boundary sits immediately before this
    instruction — the bit the compiler encodes (Sec. 6.5, encoded
    equivalently as end-of-strand on the dynamic predecessor).  The
    two-level scheduler deschedules a warp at such an instruction iff
    it still has outstanding long-latency operations. *)
