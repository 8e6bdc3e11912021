(** Register pressure: how many values are simultaneously live.

    The paper's motivation is MRF capacity — 128 KB buys 32 registers
    per thread for 1024 resident threads (Sec. 2).  This analysis
    reports the pressure a kernel actually exerts, and the number of
    machine-resident warps an MRF budget supports (the standard GPU
    occupancy computation).

    {!compute} runs {!Liveness.compute} on the kernel and counts each
    instruction's live-after set as {!Liveness.iter_live_after} streams
    it. *)

type t = {
  registers_used : int;   (** distinct architectural registers *)
  max_live : int;         (** peak simultaneously-live registers *)
  max_live_instr : int;   (** instruction id where the peak occurs *)
}

val compute : Ir.Kernel.t -> Cfg.t -> t

val resident_warps : ?mrf_bytes:int -> ?threads_per_warp:int -> ?bytes_per_reg:int -> int -> int
(** [resident_warps registers] is the warp count a register file can
    hold at the given per-thread register count.  Defaults: 128 KB
    MRF, 32 threads/warp, 4 bytes/register — 32 registers/thread
    supports 32 warps (Table 2's machine). *)
