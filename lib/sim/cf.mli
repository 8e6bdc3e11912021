(** Per-warp control flow: one fill of a warp's dynamic instruction
    stream.

    Replays a kernel's stream for one warp, with deterministic branch
    resolution: [Loop n] branches count trips per site, probabilistic
    branches hash (warp seed, site, visit).  This substitutes for the
    paper's execution-frequency traces (Sec. 5.1) — a given (kernel,
    warp, seed, cap) always yields the same stream.  The simulators
    read the streams from {!Scratch.fill_streams}' table, which is the
    one caller of {!fill} under [lib/].

    Control flow is warp-uniform (see DESIGN.md): register-file traffic
    is counted per warp-instruction, so per-thread divergence does not
    change the measured quantities. *)

val fill :
  max_dynamic:int ->
  Ir.Kernel.t ->
  warp:int ->
  seed:int ->
  counters:int array ->
  (int -> unit) ->
  unit
(** [fill ~max_dynamic k ~warp ~seed ~counters push] calls [push] on
    the id of each instruction of [warp]'s stream in order, then once
    on a marker that says why the stream ended: [-1] after [Ret] (or
    falling off the last block), [-2] once [max_dynamic] instructions
    were pushed, which caps the walk as a termination guard (at least
    one instruction is pushed; a loop through empty blocks alone also
    ends in [-2]).  [counters] is the walk's per-block state, at least
    [2 * Ir.Kernel.block_count k] ints, overwritten. *)

val warp_invariant : Ir.Kernel.t -> bool
(** [true] iff no block of the kernel ends in a [Taken_with_prob]
    branch.  Those branches are the only place a walk reads its warp,
    so on such a kernel every warp replays the same stream for a given
    seed and cap. *)
