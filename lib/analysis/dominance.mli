(** Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

    Used by the allocator to decide read-operand safety: a later read
    may be served from the ORF only if the first read of the range
    dominates it, so the ORF copy is guaranteed to exist on every path
    (paper Sec. 4.4/4.5). *)

type t

val compute : Cfg.t -> t
(** Node 0 of the graph is the entry, which {!Postdom} relies on: its
    reversed CFG puts the virtual exit there. *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry and unreachable blocks. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive.
    [false] when either block is unreachable.  O(1): b's interval in a
    depth-first numbering of the dominator tree nests in a's. *)

val instr_dominates : Ir.Kernel.t -> t -> int -> int -> bool
(** [instr_dominates k t i j]: does instruction [i] dominate
    instruction [j]?  Same block: layout order; otherwise block
    dominance. *)
