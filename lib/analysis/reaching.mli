(** Reaching definitions.

    A definition site is the id of an instruction that writes a
    register.  The kernel's code is pseudo-SSA PTX (paper Sec. 4.2):
    most registers have one definition, but hammocks and loop-carried
    updates redefine, so reads can be reached by several definitions —
    the allocator's forward-branch cases (Fig. 10).

    Cost model: {!compute} runs the block-level fixpoint over word
    bitsets of definition sites, updated in place, then walks each
    block forward once to fill a per-operand table: for every
    (instruction, source slot), the definition sites that reach that
    read.  {!reaching_operand} and {!reaching_before} on an operand's
    register are then one array read that allocates nothing; the lists
    are shared, so treat them as read-only values. *)

type t

val compute : Ir.Kernel.t -> Cfg.t -> t

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
    instruction: what {!reaching_before} returns for that operand's
    register, read straight from the per-operand table. *)

val reaches_block_end : t -> block:int -> def:int -> bool
(** Does the definition reach the exit of the given block? *)
