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

    Cost model: the set resets at every strand start, so it only ever
    holds registers written since — a handful, however large the
    kernel.  {!compute} keeps each block's entry set as an ascending run
    of register ids in one flat [int array]; a predecessor's exit set
    is re-derived from its entry run and its instructions when a
    successor meets it: O(instructions + edges x set size x block
    length); nothing stored is a pointer, so nothing is promoted.  A
    query binary-searches the register in its block's entry run and
    replays the block's instructions before [instr_id] (a strand start
    clears it, a write of the register sets it): O(the instruction's
    position in its block). *)
