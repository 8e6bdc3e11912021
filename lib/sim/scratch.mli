(** Reusable simulation buffers.

    {!Perf.run} and {!Traffic.run} keep all per-run mutable state — warp
    scoreboards, scheduler queues, stall matrices, outstanding-operation
    buffers, the {!Dec} predecode — in a scratch so sweeps that simulate
    the same kernels under many configurations reuse memory instead of
    reallocating per run.  After a warm-up run at the largest
    configuration, a simulation's steady-state cycle loop allocates
    zero minor words (recorders off) and a whole run allocates only its
    result record.

    A scratch is single-owner mutable state: never share one between
    concurrently running simulations.  {!domain_local} returns this
    domain's scratch — the default used by the simulators when the
    caller passes none, which makes buffer reuse automatic under
    {!Util.Pool} fan-out (each worker domain gets its own).

    The record fields are an implementation detail of [Sim]; outside
    code should treat the type as abstract and only [create] or
    [domain_local] one. *)

type t = {
  mutable dec_ctx : Alloc.Context.t option;
  mutable dec : Dec.t option;
  mutable cfs : Cf.t array;
  mutable ready : int array array;
  mutable ready_base : int array array;
  mutable ll : int array array;
  mutable ll_len : int array;
  mutable wake : int array;
  mutable active : int array;
  mutable pending : int array;
  mutable in_active : bool array;
  mutable scan : int array;
  mutable ready_buf : int array;
  mutable rest_buf : int array;
  mutable breakdown : int array;
  mutable span_state : int array;
  mutable span_start : int array;
  mutable stall_until : int array;
  mutable ready_since : int array;
  mutable bank_counts : int array;
  mutable conflict_extra : int array;
  unit_free : int array;
  mutable out_reg : int array;
  mutable out_at : int array;
  mutable out_len : int;
}

val create : unit -> t

val domain_local : unit -> t
(** This domain's scratch (one per domain, created on first use). *)

val dec_for : t -> Alloc.Context.t -> Dec.t
(** Predecode of the context's kernel, cached by context identity. *)

(**/**)

(* Growth/reset helpers for the simulators. *)

val ensure_warps : t -> warps:int -> num_regs:int -> unit
val ensure_banks : t -> banks:int -> num_instrs:int -> unit
val ensure_outstanding : t -> int -> unit
val cf : t -> int -> max_dynamic:int -> Ir.Kernel.t -> warp:int -> seed:int -> Cf.t
