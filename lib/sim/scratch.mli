(** Reusable simulation buffers.

    {!Perf.run} and {!Traffic.run} keep all per-run mutable state — the
    instruction streams, warp scoreboards, scheduler queues, stall
    matrices, per-pc count rows, the RFC replay, the {!Dec} predecode —
    in a scratch so sweeps that simulate the same kernels under many
    configurations reuse memory instead of reallocating per run.
    {!Trace.capture}, {!Value_trace.collect} and {!Variable_orf.run}
    read their streams from {!domain_local}'s table too.  After a
    warm-up run at the largest
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
  mutable ids : int array;
      (* the instruction streams: each distinct stream's ids, ended by its marker *)
  mutable pc : int array;
      (* per warp: index into [ids] of its next instruction *)
  mutable cf_counters : int array;
      (* {!Cf.fill}'s per-block state *)
  mutable ready : int array;
      (* warps x num_regs, row-major: cycle each register's value is ready *)
  mutable ready_base : int array;
      (* same layout, without bank-conflict serialization *)
  mutable ll : int array array;
  mutable ll_len : int array;
  mutable wake : int array;
  mutable next_active : int array;
  mutable prev_active : int array;
  mutable pending : int array;
  mutable ready_buf : int array;
  mutable rest_buf : int array;
  mutable breakdown : int array;
  mutable stint_cause : int array;
  mutable stint_start : int array;
  mutable stall_until : int array;
      (* per warp: cause decided through the cycle before; max_int while pending *)
  mutable bank_counts : int array;
  mutable conflict_extra : int array;
  unit_free : int array;
  mutable tr_rows : int array;
  mutable tr_exec : int array;
  mutable tr_flags : int array;
  mutable tr_live : int array;
  mutable tr_issued : int array;
  mutable tr_cached : bool array;
  mutable tr_rfc : int array;
  mutable tr_bins : int array;
}

val create : unit -> t

val domain_local : unit -> t
(** This domain's scratch (one per domain, created on first use). *)

val dec_for : t -> Alloc.Context.t -> Dec.t
(** Predecode of the context's kernel, cached by context identity. *)

val default_max_dynamic : int
(** 100,000: the stream-length cap of {!Trace.capture},
    {!Value_trace.collect} and {!Variable_orf.run}, and {!Traffic.run}'s
    default. *)

val fill_streams : t -> max_dynamic:int -> Ir.Kernel.t -> warps:int -> seed:int -> unit
(** Fill [ids] and [pc] with the instruction streams of [warps] warps:
    the one producer of the dynamic streams every simulator reads.  One
    {!Cf.fill} per distinct stream, so a {!Cf.warp_invariant} kernel
    stores one stream that every warp starts at (index 0), and any
    other kernel stores one stream per warp; with [warps > 1], warps
    share one stream iff [pc.(warps - 1) = 0].  Warp [w]'s stream is
    [ids.(pc.(w))], [ids.(pc.(w) + 1)], ... up to the first negative
    entry, the ids [Cf.fill ~max_dynamic kernel ~warp:w ~seed] pushes,
    and that entry is its end marker: [-1] after [Ret], [-2] at the
    cap.  The table only grows, and the next fill on this scratch
    overwrites it; a run of [n] dynamic instructions per stream over
    [s] streams holds [s * (n + 1)] ints. *)

(**/**)

(* Growth/reset helpers for the simulators. *)

val ensure_warps : t -> warps:int -> num_regs:int -> unit
val ensure_banks : t -> banks:int -> num_instrs:int -> unit
val ensure_traffic :
  t -> num_instrs:int -> num_regs:int -> rfc_entries:int -> live_words:int -> unit
