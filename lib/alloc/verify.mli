(** Placement soundness checker.

    Replays a {!Placement.t} abstractly over the CFG and verifies the
    compiler's contract:

    - an ORF/LRF source always reads an entry that holds the current
      value of that register on {e every} incoming path;
    - an MRF source always reads an up-to-date MRF copy (or a kernel
      input never written by the kernel);
    - ORF/LRF contents never survive a strand boundary;
    - the LRF is produced and consumed only by the private datapath,
      and in split mode only through the bank matching the operand
      slot;
    - long-latency results go to the MRF only;
    - fills read the filled register from the MRF in the same slot.

    Used both as a unit-test oracle and as a qcheck property over
    randomly generated kernels.

    A placement whose arrays do not match the kernel's length, or whose
    source placements do not match an instruction's arity, is not
    replayed: the result is [Error] with {!Placement.check_shape}'s
    message alone.  Any other shape finding is reported first, ahead of
    the replay's.

    {b Cost model.}  Each check allocates one scratch state and the
    block-entry states as three flat tables: ORF and LRF cells as [int
    array]s of [blocks x entries], and the current-MRF-copy sets as one
    {!Util.Bitset.matrix} over the registers that some instruction
    writes without an MRF copy (only those can go stale; about 44% of
    the registers of generated kernels).  Nothing stored is a pointer,
    so a minor collection promotes none of it.  A worklist always takes
    the pending block earliest in reverse postorder, replays it into
    the scratch state in O(its instructions x (sources + ORF entries +
    LRF banks)), and meets the result into each successor's entry in
    place, in O(ORF entries + LRF banks + tracked registers / 63); a
    successor whose entry changed becomes pending.  Entries only
    descend in a finite lattice, so a block is revisited only when its
    entry lost information.  A last pass replays every reached block
    once, in block order, and reports; the messages come out in that
    order.  On the size-256 generated kernel of seed 1 (1,678
    instructions, 388 blocks, 1,150 registers, 507 of them tracked) the
    worklist makes 557 block visits, and a check takes 0.4-0.8 ms on a
    2-vCPU KVM host and allocates about 9k minor words and 6k major
    words. *)

val check : Config.t -> Context.t -> Placement.t -> (unit, string list) result
