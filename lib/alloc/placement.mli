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

type t = {
  dsts : dest option array;        (** by instr id; [None] iff no result *)
  srcs : level array array;        (** by instr id, per source position *)
  fills : (int * int) list array;  (** by instr id: (source position, ORF entry) *)
}

val mrf_only : dest

val baseline : Ir.Kernel.t -> t
(** Everything in the MRF — the paper's single-level baseline. *)

val dest : t -> instr:int -> dest option
val src : t -> instr:int -> pos:int -> level
val fills_of : t -> instr:int -> (int * int) list

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
(** Structural checks only (verification proper is {!Verify}): array
    shapes match the kernel; every result has a destination with at
    least one target and not LRF+ORF together. *)

val level_name : level -> string
