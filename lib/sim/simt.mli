(** SIMT divergence execution with a reconvergence stack.

    The baseline SM (paper Sec. 2) executes 32-thread warps under an
    active mask; threads may take different paths, reconverging at the
    branch's immediate post-dominator (the standard stack model).  The
    warp-uniform stream ({!Cf}) is sufficient for the paper's
    energy accounting — traffic is counted per warp instruction — but
    this module completes the substrate and quantifies how divergence
    changes the picture:

    - probabilistic branches ([Taken_with_prob]) are decided {e per
      thread} (hashing warp, lane, site and visit), so warps genuinely
      diverge; [Loop] trip counts and [Always/Never] stay warp-uniform;
    - a register-file access under divergence activates only the
      4-lane clusters containing live threads, so each operand costs
      between 1 and 8 bank accesses instead of always 8 — the
      divergence-aware traffic mode exposes exactly that weight.

    Executions are bounded by [max_dynamic] warp instructions and, like
    everything else, deterministic in the seed. *)

type stats = {
  warp_instructions : int;   (** dynamic warp instructions issued *)
  thread_instructions : int; (** sum of active threads over those *)
  simd_efficiency : float;   (** thread_instructions / (warp_instructions * 32) *)
  max_stack_depth : int;     (** deepest reconvergence stack observed *)
  divergent_branches : int;  (** branch executions that split the mask *)
  reconvergences : int;
  (** divergence-created frames rejoining at their reconvergence
      point (roughly two per divergent branch that runs to join) *)
}

val run_warp :
  ?threads_per_warp:int ->
  ?max_dynamic:int ->
  Ir.Kernel.t ->
  warp:int ->
  seed:int ->
  on_instr:(Ir.Instr.t -> active:int -> clusters:int -> unit) ->
  stats
(** Execute one warp, invoking [on_instr] per dynamic warp instruction
    with the active-thread count and the number of active 4-lane
    clusters (= 128-bit bank accesses per operand). *)

type traffic_result = {
  clusters : int array;
  (** per instruction id: the active clusters of its executions, summed
      over every warp.  As {!Traffic.price} weights they give counts in
      units of bank accesses: comparable across divergence levels, NOT
      directly against {!Traffic.run}'s per-warp-operand units *)
  stats : stats;
}

val traffic :
  ?warps:int -> ?seed:int -> ?max_dynamic_per_warp:int -> Alloc.Context.t -> traffic_result
(** Divergence-aware register-file traffic: one walk of every warp, in
    which each instruction execution weighs its active clusters, so
    [Traffic.price ctx placement r.clusters] prices any placement of the
    context under that divergence.  Reports into {!Obs.Metrics}
    ([sim.simt.runs], [sim.simt.divergent_branches],
    [sim.simt.reconvergences]) and records a [simulate.simt] span. *)
