(** Post-dominator tree: {!Dominance.compute} over the reversed CFG,
    whose node 0 (the entry) is a virtual exit joining all [Ret] blocks
    and whose node b + 1 is block b.

    Used by the SIMT divergence executor: a divergent branch's
    reconvergence point is the branch block's immediate post-dominator
    (the standard stack-based reconvergence of GPU hardware, implied by
    the paper's baseline SM of Sec. 2). *)

type t

val compute : Ir.Kernel.t -> Cfg.t -> t

val ipdom : t -> int -> int option
(** Immediate post-dominator block; [None] when the block exits the
    kernel directly or cannot reach an exit. *)
