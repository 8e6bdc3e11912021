(** Def-use chains over register instances.

    An {e instance} is one definition site together with every read it
    reaches — the paper's "register instance" that the allocator places
    in the hierarchy (Fig. 7).  Reads reached by several definitions
    (values merged at hammock join points, Fig. 10(c)) link those
    definitions into a shared {e group}: either every definition of the
    group targets the same ORF entry, or the merged reads fall back to
    the MRF. *)

type read = {
  read_instr : int;  (** reading instruction id *)
  slot : int;        (** operand slot index: 0 = A, 1 = B, 2 = C *)
}

type instance = {
  def : int;            (** defining instruction id *)
  reg : Ir.Reg.t;
  reads : read list;    (** layout order; may be empty (dead value) *)
  group : int;          (** instances sharing any read share a group id *)
}

type t

val compute : Ir.Kernel.t -> Reaching.t -> t
(** Cost model: two passes over the per-operand reaching table
    ({!Reaching.num_reaching}) fill flat int tables by instruction id —
    each def's group id, each def's reads and each group's members as
    compressed rows (a read coded as its operand index [read_instr *
    Ir.Instr.num_slots + slot]) — so nothing stored is a pointer and
    nothing is promoted.  The walks below ({!num_reads},
    {!read_operand}, {!group_size}, {!group_member}) are array reads
    that allocate nothing; {!instances}, {!instance_of_def},
    {!group_members} and {!input_reads} build their lists per call. *)

val operand : instr_id:int -> slot:int -> int
(** The operand index [instr_id * Ir.Instr.num_slots + slot] that codes
    a read. *)

val is_def : t -> int -> bool
(** Does the instruction write a register? *)

val group_of : t -> int -> int
(** The group id of a def (the [group] of its instance). *)

val num_reads : t -> int -> int
(** How many reads the def reaches. *)

val read_operand : t -> int -> int -> int
(** [read_operand t d n]: the operand index of def [d]'s [n]th read, in
    layout order. *)

val group_size : t -> int -> int
(** How many defs the group holds (0 unless the id is a group's). *)

val group_member : t -> int -> int -> int
(** [group_member t g n]: the [n]th def of group [g], in layout order. *)

val instances : t -> instance list
(** All instances in layout order of their definitions. *)

val instance_of_def : t -> int -> instance option
(** Look up by defining instruction id. *)

val group_members : t -> int -> instance list
(** All instances in the given group. *)

val input_reads : t -> (Ir.Reg.t * read list) list
(** Reads with no reaching in-kernel definition, grouped by register:
    kernel inputs pre-loaded in the MRF.  These are candidates for
    read-operand allocation (paper Sec. 4.4). *)

val reads_of_instance_multi : t -> instance -> bool
(** [true] iff some read of this instance is also reached by another
    definition (i.e. the group is non-trivial for that read). *)
