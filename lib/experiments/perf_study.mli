(** The scheduling claim of Sec. 6: a two-level warp scheduler with 8
    active warps (of 32) loses no IPC against the single-level
    scheduler, under both descheduling policies (the hardware RFC's
    deschedule-on-dependence and the software scheme's
    deschedule-at-strand-boundaries). *)

val tables : Options.t -> Util.Table.t list
(** Two tables from one fan-out over the benchmarks.  The IPC table:
    per active-warp count and descheduling policy, the mean over
    benchmarks of IPC(two-level) / IPC(single-level).  Where the
    warp-cycles went: one row per {!Sim.Perf.stall_cause}, columns for
    the single-level scheduler and the two-level scheduler (8 active
    warps) under both policies, each cell the mean over benchmarks of
    that cause's share of the [cycles x warps] budget (in %).  Each
    configuration is simulated once and memoized. *)

val ipc_ratio :
  Options.t -> Workloads.Registry.entry -> policy:Sim.Perf.policy -> active:int -> float
(** IPC(two-level with [active]) / IPC(single-level) on one benchmark. *)

val clear_cache : unit -> unit
