(** Register-file traffic accounting.

    Executes every warp's dynamic instruction stream (or, where every
    warp's stream is the same, one warp's, weighted: see the cost
    model) and counts accesses to each level of the register-file
    hierarchy under a given scheme:

    - [Baseline]: the single-level register file every figure is
      normalized to — every operand is an MRF access.
    - [Sw]: the compiler-managed hierarchy; counts follow the
      {!Alloc.Placement.t} annotations (dest levels, source levels,
      read-operand fills).  No writeback traffic exists by
      construction: persistent values were written to the MRF when
      produced (Sec. 3.1).
    - [Hw]: the hardware register-file cache baseline (Sec. 2.2),
      optionally with a hardware LRF in front (Sec. 6.2): FIFO
      replacement, write-allocation, eviction writebacks and
      deschedule flushes with static-liveness elision, and tag
      energy the software scheme does not pay.

    Traffic is timing-independent per warp except for the hardware
    scheme's deschedule points: a long-latency value's consumer
    deschedules (and flushes) the warp only if it executes within
    [long_latency_shadow] warp-local instructions of the load — the
    DRAM latency divided by the warp's issue share under the two-level
    scheduler.

    {b Cost model.}  A run first fills its warps' dynamic instruction
    streams into the scratch's table ({!Scratch.fill_streams}: one
    {!Cf.fill} per distinct stream); then one walk reads them, and its
    per-instruction path reads only int arrays in {!Scratch} and
    {!Dec}.  Under [Baseline] and [Sw] every
    access count is fixed per static instruction by the placement
    ([Baseline] is {!Alloc.Placement.baseline} with deschedules off),
    so a step only counts the instruction's executions and checks the
    strand-start deschedule, in O(1) per dynamic instruction.  Under
    [Hw] a step replays the RFC and LRF, in O(sources) plus O(RFC
    entries) per eviction or removal, and charges each access to the
    instruction's row.

    Which warps are walked: under [Hw], every warp.  Under [Baseline]
    and [Sw], when the table holds one stream that every warp starts at
    (a {!Cf.warp_invariant} kernel), warp 0 alone, standing for all
    [warps]: every warp replays that stream, each warp starts with no
    long-latency issue outstanding, and a step's counts are static per
    instruction, so each warp adds the same executions, deschedules
    and caps.  The fold multiplies the executions, and the
    result's [dynamic_instrs], [desched_events] and [capped_warps] (and
    the [sim.traffic.*] metric counters) are warp 0's times [warps].
    A kernel with a [Taken_with_prob] branch, or a run with the audit
    or counter recorder on (both emit per warp), walks every warp.

    Per run: the fill, O(dynamic instructions) of each distinct
    stream; O(static instructions) to build the [Sw]/[Baseline]
    table.  A [Hw] run
    computes the kernel's block liveness itself ([Alloc.Context]
    carries none) and fills its live-after table from one backward
    walk per block, in O(static instructions x registers).  Then one
    fold of the per-instruction rows (times their executions) into
    [per_strand], [counts] and, with [attribution], the attribution
    tables.  {!price} is the same table and fold over weights its
    caller counted.  A warmed run allocates only its result and a few
    per-run records, whatever its length; a [Hw] run also allocates
    the block liveness sets, O(blocks x registers / 63) words.  Audit
    events and counter samples, when their recorders are on, are
    emitted per dynamic instruction. *)

type hw_options = {
  rfc_entries : int;
  with_lrf : bool;   (** three-level hardware hierarchy *)
  flush_on_backward_branch : bool;  (** Sec. 7 ablation; default [false] *)
  never_flush : bool;  (** Sec. 7 idealization: deschedules do not flush *)
}

val hw_defaults : rfc_entries:int -> hw_options

type scheme =
  | Baseline
  | Sw of { config : Alloc.Config.t; placement : Alloc.Placement.t }
  | Hw of hw_options

type result = {
  counts : Energy.Counts.t;
  per_strand : Energy.Counts.t array;  (** indexed by strand id *)
  dynamic_instrs : int;
  desched_events : int;
  capped_warps : int;  (** warps whose stream the dynamic-length cap ended *)
}

val run :
  ?warps:int ->
  ?seed:int ->
  ?max_dynamic_per_warp:int ->
  ?long_latency_shadow:int ->
  ?attribution:bool ->
  ?scratch:Scratch.t ->
  Alloc.Context.t ->
  scheme ->
  result
(** [warps] defaults to 32 (Table 2's machine-resident warps);
    [long_latency_shadow] defaults to 50 (400 DRAM cycles divided by a
    warp's 1-in-8 issue share under the two-level scheduler).

    [max_dynamic_per_warp] (default {!Scratch.default_max_dynamic})
    caps each warp's stream.  [scratch] (default: this domain's
    {!Scratch.domain_local}) supplies the stream table, per-instruction
    rows and cache replay arrays, and the run refills its stream table;
    results are identical whatever scratch is passed.

    @raise Invalid_argument if an [Hw] scheme has [rfc_entries < 1].

    [attribution] (default [false]) enables the per-instruction
    attribution tables of {!Energy.Counts} on [per_strand] and the
    merged [counts], charging every access to the static instruction
    that caused it (cache evictions and flushes charge the instruction
    that triggered them).

    When {!Obs.Counters} is enabled, the run additionally emits
    [traffic.mrf_accesses] / [traffic.orf_accesses] /
    [traffic.lrf_accesses] counter tracks: per-level accesses summed
    over windows of 32 warp-local dynamic instructions, accumulated
    across warps, stamped with the window-start instruction index. *)

val price : Alloc.Context.t -> Alloc.Placement.t -> int array -> Energy.Counts.t
(** [price ctx placement weights] is the counts of [weights.(pc)]
    executions of each instruction [pc] under [placement] ([weights]
    has one entry per instruction): {!run}'s per-pc rows and fold for
    [Baseline] and [Sw], without a walk.  This is the one place a
    placement becomes counts: {!Simt} weights each pc by its active
    clusters and {!Variable_orf} by its executions under each ORF
    grant.  The rows are built in this domain's {!Scratch.domain_local},
    whose stream table it leaves as it is. *)
