(** Backward liveness over architectural registers.

    The RFC baseline uses this as the "static liveness information
    encoded in the program binary" that elides writebacks of dead
    values (paper Sec. 2.2), and the pressure study counts live
    registers with it.  The allocator does not read liveness, so
    [Alloc.Context] does not compute it: each reader computes it where
    it runs ([Sim.Traffic] once per [Hw] run, {!Pressure.compute} once
    per kernel).

    Cost model: {!compute} solves the block-level dataflow and keeps
    only the block live-out sets, one [blocks x num_regs]
    {!Util.Bitset.matrix} (one [int array], so nothing the solve
    stores is ever promoted).  Per-instruction sets are not stored:
    {!iter_live_after} streams them from one backward walk per block
    over a single scratch set, O(instructions + blocks x num_regs / 63)
    words touched. *)

type t

val compute : Ir.Kernel.t -> Cfg.t -> t

val iter_live_after : t -> (Ir.Instr.t -> Util.Bitset.t -> unit) -> unit
(** [iter_live_after t f] calls [f i live] once per instruction, with
    [live] the registers live immediately after [i].  Blocks come in
    layout order and each block's instructions bottom up.  [live] is
    one scratch set the walk reuses: read it inside [f] only, and do
    not modify it.  [Util.Bitset.count live] is the register pressure
    after [i]. *)
