(** Per-warp control-flow walker.

    Replays a kernel's dynamic instruction stream for one warp, with
    deterministic branch resolution: [Loop n] branches count trips per
    site, probabilistic branches hash (warp seed, site, visit).  This
    substitutes for the paper's execution-frequency traces (Sec. 5.1) —
    a given (kernel, warp, seed) always yields the same stream.

    Control flow is warp-uniform (see DESIGN.md): register-file traffic
    is counted per warp-instruction, so per-thread divergence does not
    change the measured quantities. *)

type t

val create : ?max_dynamic:int -> Ir.Kernel.t -> warp:int -> seed:int -> t
(** [max_dynamic] (default 100_000) caps the dynamic instruction count
    as a termination guard. *)

val reset : t -> ?max_dynamic:int -> Ir.Kernel.t -> warp:int -> seed:int -> unit
(** Reinitialize in place for a fresh walk, reusing the per-block
    counter arrays when the kernel's block count fits — the simulator
    scratch ({!Scratch}) path that keeps repeated runs allocation-free. *)

val peek : t -> Ir.Instr.t option
(** Next instruction to execute; [None] once the kernel returned or
    the cap was reached. *)

val peek_id : t -> int
(** Id of the next instruction, or [-1] once finished.  Allocation-free
    (unlike {!peek}, which boxes an option per call) — the form the
    cycle loops use together with the {!Dec} instruction arrays. *)

val advance : t -> unit
(** Consume the current instruction, resolving the block terminator
    when it was the last of its block. *)

val finished : t -> bool
val dynamic_count : t -> int

val hit_cap : t -> bool
(** Did the walk stop because of [max_dynamic] rather than [Ret]? *)

val warp_invariant : Ir.Kernel.t -> bool
(** [true] iff no block of the kernel ends in a [Taken_with_prob]
    branch.  Those branches are the only place a walk reads its warp,
    so on such a kernel every warp replays the same stream for a given
    seed and cap (as {!Trace.capture} shows, warp by warp). *)
