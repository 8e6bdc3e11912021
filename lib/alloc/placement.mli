(** Per-instruction operand placement annotations — the compiler's
    output, corresponding to the level bits the paper encodes in the
    register namespace (Sec. 3.1).

    A destination may be written to the LRF {e or} the ORF (never
    both, Sec. 4.6), optionally combined with an MRF write for
    persistent values.  A source names the level (and bank/entry, kept
    for verification) it reads from.  Read-operand allocation
    (Sec. 4.4) additionally records {e fills}: a source read from the
    MRF whose value is simultaneously written into an ORF entry for
    later reads. *)

type level =
  | From_lrf of int  (** LRF bank (0 unified; operand slot when split) *)
  | From_orf of int  (** ORF entry index *)
  | From_mrf

type dest = {
  to_lrf : int option;  (** LRF bank *)
  to_orf : int option;  (** ORF entry *)
  to_mrf : bool;
}

type t
(** Cost model: a placement's per-instruction tables hold immediates
    and shared cells: every level and destination within the
    hardware's bounds ([Energy.Params.max_orf_entries] ORF entries, one
    LRF bank per operand slot) is one cell built once, which {!set_dest}
    and {!set_src} store in place of their argument.  A stored cell is
    never young, so the write barrier records nothing and a minor
    collection promotes none of the tables, whatever their size; only
    the rare fills are fresh lists.  Sources are compressed rows over
    one array.  Reads are one or two array loads and allocate nothing. *)

val baseline : Ir.Kernel.t -> t
(** Everything in the MRF — the paper's single-level baseline. *)

val dest : t -> instr:int -> dest option
(** [None] iff the instruction has no result. *)

val src : t -> instr:int -> pos:int -> level
(** @raise Invalid_argument if [pos] is not below the instruction's
    source count. *)

val fills_of : t -> instr:int -> (int * int) list
(** (source position, ORF entry) pairs, most recently added first. *)

val arity : t -> instr:int -> int
(** The number of source positions the placement holds for the
    instruction. *)

val shape_matches : Ir.Kernel.t -> t -> bool
(** Does the placement cover the kernel's instructions, with each
    instruction's source count? *)

val within : t -> orf_entries:int -> t
(** [within p ~orf_entries:n] is [p] on an ORF of its first [n]
    entries: a source in an entry [>= n] is read from the MRF, and fills
    of such entries and destination writes to them are dropped.  The
    MRF then holds every value only when [p] was compiled with
    {!Config.mirror_mrf}. *)

val set_dest : t -> instr:int -> dest -> unit
val set_src : t -> instr:int -> pos:int -> level -> unit
val add_fill : t -> instr:int -> pos:int -> entry:int -> unit

val check_shape : Ir.Kernel.t -> t -> (unit, string) result
(** Structural checks only (verification proper is {!Verify}): the
    placement's shape matches the kernel ({!shape_matches}); every
    result has a destination with at least one target and not LRF+ORF
    together. *)

val level_name : level -> string
