(** Def-use chains over register instances.

    An {e instance} is one definition site together with every read it
    reaches — the paper's "register instance" that the allocator places
    in the hierarchy (Fig. 7).  Reads reached by several definitions
    (values merged at hammock join points, Fig. 10(c)) link those
    definitions into a shared {e group}: either every definition of the
    group targets the same ORF entry, or the merged reads fall back to
    the MRF.  A read that no definition reaches (a kernel input,
    pre-loaded in the MRF) belongs to no instance. *)

type t

val compute : Ir.Kernel.t -> Reaching.t -> t
(** Cost model: two passes over the per-operand reaching table
    ({!Reaching.num_reaching}) fill flat int tables by instruction id —
    each def's group id, each def's reads and each group's members as
    compressed rows (a read coded as its operand index [read_instr *
    Ir.Instr.num_slots + slot]) — so nothing stored is a pointer and
    nothing is promoted.  The readers below are array reads that
    allocate nothing. *)

val operand : instr_id:int -> slot:int -> int
(** The operand index [instr_id * Ir.Instr.num_slots + slot] that codes
    a read. *)

val is_def : t -> int -> bool
(** Does the instruction write a register? *)

val group_of : t -> int -> int
(** The group id of a def: defs whose instances share a read share a
    group. *)

val num_reads : t -> int -> int
(** How many reads the def reaches. *)

val read_operand : t -> int -> int -> int
(** [read_operand t d n]: the operand index of def [d]'s [n]th read, in
    layout order. *)

val group_size : t -> int -> int
(** How many defs the group holds (0 unless the id is a group's). *)

val group_member : t -> int -> int -> int
(** [group_member t g n]: the [n]th def of group [g], in layout order. *)
