(** Reaching definitions.

    A definition site is the id of an instruction that writes a
    register.  The kernel's code is pseudo-SSA PTX (paper Sec. 4.2):
    most registers have one definition, but hammocks and loop-carried
    updates redefine, so reads can be reached by several definitions —
    the allocator's forward-branch cases (Fig. 10).

    Cost model: the fixpoint runs over the definition sites of
    registers with {e several} definitions only (about 30% of the sites
    of generated kernels), in two [blocks x those sites] bit matrices.
    A register with one definition site (the pseudo-SSA common case)
    needs none: every path from its site is definition-clear, so the
    site reaches a point iff a path leads there.  Dominance answers
    that in O(1) for all but about 0.2% of such reads of generated
    kernels (a block reaches every block it strictly dominates); the
    rest take a forward walk from the site's block.  One forward
    walk then fills a per-operand table: for every (instruction, source
    slot) one int, the reaching site itself when exactly one reaches
    the read, else an index into one shared int array of longer lists
    (one per block and register, shared by that block's reads).  Every
    table is a flat [int array] or a bit matrix, so no pointer is
    stored and nothing is promoted.  {!num_reaching} and
    {!nth_reaching} read an operand's sites with no allocation;
    {!reaching_operand} builds the list. *)

type t

val compute : Ir.Kernel.t -> Cfg.t -> Dominance.t -> t

val reaching_before : t -> instr_id:int -> Ir.Reg.t -> int list
(** Definition sites of the register that reach the program point just
    before the instruction.  The empty list means the register is a
    kernel input (pre-loaded in the MRF) on at least every path —
    callers treat "no in-kernel def reaches" as an input read.

    For a source register of the instruction this is the per-operand
    table entry.  Any other register is answered by walking back from
    the instruction to the register's last definition in the block, or
    failing that by filtering its definition sites by the block-entry
    set: O(instructions walked + sites), and it allocates the result. *)

val reaching_operand : t -> instr_id:int -> slot:int -> int list
(** Definition sites reaching source operand [slot] (0 = A) of the
    instruction, ascending: what {!reaching_before} returns for that
    operand's register, built from the per-operand table (it allocates
    the list; hot walks use {!num_reaching} and {!nth_reaching}). *)

val num_reaching : t -> instr_id:int -> slot:int -> int
(** How many definition sites reach the operand: one array read. *)

val nth_reaching : t -> instr_id:int -> slot:int -> int -> int
(** [nth_reaching t ~instr_id ~slot n] is the [n]th (from 0, ascending)
    site reaching the operand, for [n < num_reaching t ~instr_id ~slot]. *)

val reaches_block_end : t -> block:int -> def:int -> bool
(** Does the definition reach the exit of the given block?  A site of
    a one-definition register reaches the exit of its own block and of
    every block reachable from it (a walk over the blocks when the
    site's block does not dominate the given one). *)
