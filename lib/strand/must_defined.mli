(** Must-defined-since-strand-start analysis.

    Decides the forward-branch cases of paper Fig. 10: a read may be
    served from the ORF/LRF only if, on {e every} within-strand path
    from the strand's start to the read, the register was written in
    the strand (so the upper-level copy is guaranteed to exist).  In
    Fig. 10(a) the value is written on one hammock side only — not
    must-defined at the merge, so the merge read goes to the MRF; in
    Fig. 10(c) both sides write it — must-defined, so the merge read
    can use the ORF entry shared by both definitions.

    The set of must-defined registers resets at every strand boundary.
    Like the pending analysis, a single pass in layout order is exact
    because all cycles pass through cleared backward-branch targets. *)

type t

val compute : Ir.Kernel.t -> Analysis.Cfg.t -> Partition.t -> t

val must_defined_before : t -> instr_id:int -> Ir.Reg.t -> bool
(** Was the register definitely written between the current strand's
    start and this instruction, on every path?

    Cost model: {!compute} keeps one [num_regs]-bit set per block, the
    must-defined registers at its entry.  A query reads the register's
    bit there and replays the block's instructions before [instr_id]
    (a strand start clears it, a write of the register sets it): O(the
    instruction's position in its block), and it allocates nothing. *)
