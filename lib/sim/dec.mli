(** Predecoded kernels: struct-of-arrays instruction facts for the
    cycle-accurate loops.

    The timing simulator issues the same static instructions millions
    of times; chasing [Ir.Instr.t] records, operand lists and
    [Strand.Partition] lookups on every attempt dominated its profile
    and allocated on every cycle.  [Dec.of_context] flattens a kernel
    once per run into dense int arrays indexed by instruction id, so
    [try_issue]/[probe] in {!Perf} and the accounting walk in
    {!Traffic} are pure array indexing.  The arrays are immutable after
    construction and safe to share across domains. *)

type t = private {
  kernel : Ir.Kernel.t;
  num_instrs : int;
  num_regs : int;
  unit_of : int array;        (** function-unit class, 0..3 in {!Ir.Op.unit_class} order *)
  latency : int array;        (** {!Ir.Op.latency} *)
  issue_cycles : int array;   (** {!Ir.Op.issue_cycles} *)
  dst : int array;            (** destination register, [-1] = none *)
  is_ll : bool array;         (** long-latency op producing a result *)
  shared_dp : bool array;     (** {!Ir.Op.is_shared_datapath} *)
  starts_strand : bool array; (** {!Strand.Partition.starts_strand} *)
  nsrcs : int array;          (** source-operand count *)
  srcs : int array;           (** positional sources at [id * max_srcs + pos], [-1] padded *)
  nuniq : int array;          (** distinct-source count *)
  uniq : int array;           (** distinct sources, same layout *)
}

val max_srcs : int
(** Row stride of [srcs]/[uniq] (= {!Ir.Instr.num_slots}). *)

val of_context : Alloc.Context.t -> t
(** Predecode against the context's kernel and strand partition. *)

val conflict_extra : t -> banks:int -> bank_counts:int array -> int -> int
(** Extra serialized operand-fetch cycles of instruction [id] under a
    [banks]-way banked MRF: distinct same-bank sources beyond the first
    each cost one cycle.  [bank_counts] is a caller-owned zeroed scratch
    array of at least [banks] entries, zeroed again on return —
    allocation-free, so {!Perf} can precompute a per-instruction table
    at run start. *)
