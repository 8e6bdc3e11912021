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
    (one per block and register, shared by that block's reads).  That
    table is all {!t} keeps: the site tables and bit matrices are
    locals of {!compute}, and no pointer is stored, so nothing is
    promoted.  {!num_reaching} and {!nth_reaching} read an operand's
    sites with no allocation. *)

type t

val compute : Ir.Kernel.t -> Cfg.t -> Dominance.t -> t

val num_reaching : t -> instr_id:int -> slot:int -> int
(** How many definition sites reach the operand: one array read.  0
    means the register is a kernel input (pre-loaded in the MRF) on at
    least every path. *)

val nth_reaching : t -> instr_id:int -> slot:int -> int -> int
(** [nth_reaching t ~instr_id ~slot n] is the [n]th (from 0, ascending)
    site reaching the operand, for [n < num_reaching t ~instr_id ~slot]. *)
