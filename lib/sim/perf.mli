(** Cycle-level performance simulation of one SM (Table 2 parameters).

    In-order, one warp instruction issued per cycle, function-unit
    latencies and shared-datapath issue rates from {!Ir.Op}.  Used to
    verify the paper's scheduling claim: a two-level warp scheduler
    with 8 active warps (out of 32) matches the single-level
    scheduler's IPC (Sec. 6).

    Two descheduling policies are modelled:
    - [On_dependence]: the hardware RFC policy — a warp leaves the
      active set when its next instruction waits on a long-latency
      result (Sec. 2.2);
    - [At_strand_boundaries]: the software policy — a warp leaves the
      active set at a compiler-marked strand boundary while
      long-latency operations are outstanding (Sec. 4.1).

    {2 Stall attribution}

    Beyond aggregate IPC, every warp-cycle is classified into exactly
    one {!stall_cause} against start-of-cycle state, in active-set
    round-robin order — so the warp the scheduler actually issues is
    the one classified [Issued], and warps that were ready but lost
    arbitration are [No_issue_slot].  The classification is pure
    accounting: it never changes simulated timing, and it is exact —
    for every run, {!breakdown_total}[ result.stalls = cycles * warps]
    and each warp's breakdown sums to [cycles], whether or not the
    {!Obs.Timeline} recorder is enabled.  When the recorder is on, the
    same classification is emitted as per-warp state intervals tiling
    [\[0, cycles)]. *)

type scheduler =
  | Single_level            (** all warps schedulable every cycle *)
  | Two_level of int        (** active-set size *)

type policy = On_dependence | At_strand_boundaries

(** The stall taxonomy, shared with {!Obs.Timeline.state} (see there
    for per-constructor semantics). *)
type stall_cause = Obs.Timeline.state =
  | Issued
  | Wait_long_latency
  | Wait_short_latency
  | Bank_conflict_serialization
  | Descheduled_pending
  | No_issue_slot
  | Finished

(** Warp-cycle counts per stall cause.  One field per {!stall_cause},
    in {!Obs.Timeline.all_states} order. *)
type stall_breakdown = {
  issued : int;
  wait_long_latency : int;
  wait_short_latency : int;
  bank_conflict_serialization : int;
  descheduled_pending : int;
  no_issue_slot : int;
  finished : int;
}

type warp_stats = { warp : int; breakdown : stall_breakdown }

(** Active-set residency: how warps moved through the two-level
    scheduler's active set, plus deschedule events by cause. *)
type sched_stats = {
  entries : int;  (** initial fill + every pending->active promotion *)
  exits : int;  (** deschedules + finished-warp removals *)
  resident_cycles : int;  (** warp-cycles spent occupying an active slot *)
  desched_long_latency : int;  (** hardware long-latency dependence *)
  desched_strand_boundary : int;  (** compiler strand-boundary policy *)
  desched_bank_conflict : int;
      (** dependence extended past its base latency purely by banked-MRF
          conflict serialization *)
}

type result = {
  cycles : int;
  instructions : int;
  ipc : float;
  desched_events : int;
  stalls : stall_breakdown;  (** summed over all warps *)
  per_warp : warp_stats array;  (** indexed by warp id *)
  sched : sched_stats;
}

val breakdown_get : stall_breakdown -> stall_cause -> int

val breakdown_fields : stall_breakdown -> (string * int) list
(** [(state name, count)] pairs in canonical {!Obs.Timeline.all_states}
    order — the manifest / table / report rendering order. *)

val breakdown_total : stall_breakdown -> int
(** Sum of all fields; equals [cycles * warps] for [result.stalls] and
    [cycles] for each per-warp breakdown. *)

val stalled_cycles : stall_breakdown -> int
(** Warp-cycles neither issued nor finished. *)

val mean_residency : sched_stats -> float
(** Average active-set visit length in cycles ([resident_cycles /
    entries]; [0.] when there were no entries). *)

val stall_table : bench:string -> warps:int -> (string * result) list -> Util.Table.t
(** ["Stall attribution: <bench> (<warps> warps, % of cycles x
    warps)"]: per labelled run, cycles, IPC and each stall cause's
    share of the run's warp-cycles. *)

val residency_table : (string * result) list -> Util.Table.t
(** ["Active-set residency"]: per labelled run, active-set entries,
    exits, resident cycles, mean residency and deschedules by cause. *)

val top_warps_table : n:int -> label:string -> result -> Util.Table.t
(** ["Top <n> stalled warps (<label>)"]: the [n] warps of one run
    with the most stalled cycles (ties by warp id), with their
    per-cause breakdown. *)

val run :
  ?warps:int ->
  ?seed:int ->
  ?max_dynamic_per_warp:int ->
  ?max_cycles:int ->
  ?mrf_banks:int ->
  ?scratch:Scratch.t ->
  scheduler:scheduler ->
  policy:policy ->
  Alloc.Context.t ->
  result
(** Defaults: 32 warps, 2_000 dynamic instructions per warp,
    10_000_000-cycle guard.

    [mrf_banks] enables the banked-MRF refinement: the MRF is split
    into that many banks (Table 2: 32) and an instruction whose source
    operands collide on a bank takes extra operand-fetch cycles — the
    operand buffering of Fig. 1(c) hides the base multi-cycle fetch,
    but same-bank operands serialize.  Omitted = ideal operand fetch
    (the paper's performance model).

    [scratch] holds every per-run buffer (defaults to this domain's
    {!Scratch.domain_local}): after a warm-up run, the cycle loop
    allocates no minor words in steady state (recorders off) and
    repeated runs reuse all simulation memory.  Results are identical
    whatever scratch is passed.

    Cost model: the loop is event-driven.  A cycle costs one walk over
    the active set, in which a warp waiting on a known cycle (a cached
    dependence stall, or an issuable warp whose unit is busy) and an
    issuable warp after the cycle's issue slot is taken each cost one
    compare; only the issuer, warps whose wait just ended and warps
    changing queues do real work.  A cycle that issues nothing and
    moves no warp out of the active set is followed by a jump to the
    next cycle on which anything can change, so a run of dead cycles
    costs as much as one cycle (plus one [perf.active_warps] sample
    per 64 cycles when {!Obs.Counters} is on).  Total work is about
    (issue cycles + wait expiries + queue moves) x active-set size,
    independent of how many cycles are dead; the stall attribution
    stays exact. *)
