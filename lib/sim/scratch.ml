(* All per-run mutable state of the cycle loops lives here so repeated
   runs (sweeps, figure regeneration, the perf study) reuse buffers
   instead of reallocating them: after the first run over the largest
   configuration, a simulation allocates only its result record.  A
   scratch is single-owner mutable state — never share one across
   domains; [domain_local] hands each domain its own. *)

type t = {
  (* Predecode cache, keyed by context identity: sweeps re-simulate the
     same compiled context under many configurations. *)
  mutable dec_ctx : Alloc.Context.t option;
  mutable dec : Dec.t option;
  (* The simulators' instruction streams, filled by [fill_streams]:
     each distinct stream's instruction ids in order, ended by its
     {!Cf} marker (-1 after [Ret], -2 at the cap), back to back.  [pc]
     holds each warp's index into [ids] of its next instruction; on a
     warp-invariant kernel every warp starts at the one stream's index
     0.  [cf_counters] is the fill's per-block state. *)
  mutable ids : int array;
  mutable pc : int array;
  mutable cf_counters : int array;
  (* Per-warp state.  The scoreboards are flat [warps x num_regs]
     rows, row-major (warp [w]'s register [r] at [w * num_regs + r]). *)
  mutable ready : int array;             (* cycle each register's value is ready *)
  mutable ready_base : int array;        (* same, without bank-conflict serialization *)
  mutable ll : int array array;          (* outstanding long-latency ready cycles *)
  mutable ll_len : int array;
  mutable wake : int array;
  (* Two-level scheduler queues and their refill scratch.  The active
     queue is a doubly linked list over warp ids (each queued warp's
     successor and predecessor, -1 at the ends; its head and tail are
     per-run cells), walked in place every cycle; [pending] is a flat
     prefix in wake order. *)
  mutable next_active : int array;
  mutable prev_active : int array;
  mutable pending : int array;
  mutable ready_buf : int array;
  mutable rest_buf : int array;
  (* Stall attribution.  Every warp is in one open stint from cycle 0
     to the end of the run: its row of [breakdown] ([stint_cause]) and
     the cycle it began ([stint_start]).  A classification to another
     row ends the stint, crediting its length to the matrix. *)
  mutable breakdown : int array;         (* warps x 7, row-major *)
  mutable stint_cause : int array;
  mutable stint_start : int array;
  (* Per warp, how far its classification is decided: through
     [stall_until - 1], so the walk skips an active warp before it.  It
     is the end of a cached dependence stall (the next ready(-base)
     crossing among its blocked sources), the end of the busy spell of
     the unit an issuable ([No_issue_slot]) warp waits on, the cycle
     after its last issue or classification, or the [promote_end] of
     the refill that promoted it.  Below the walk's cycle, it marks the
     cycles the warp sat behind an issuer, which its next visit
     classifies first.  A pending warp holds [max_int]: it owes nothing
     until promoted. *)
  mutable stall_until : int array;
  (* Banked-MRF conflict tables. *)
  mutable bank_counts : int array;
  mutable conflict_extra : int array;    (* per instruction *)
  unit_free : int array;
  (* Traffic walk: per-pc count rows ([Energy.Counts.row_cells] cells
     each), executions and flag bits; the HW scheme's per-pc live-after
     table (a row of [live_words] ints per pc, 63 registers a word); per
     register, the walk time of its last long-latency issue (-1 = none)
     and its RFC residency; the RFC FIFO, oldest first; counter-track
     windows (MRF, ORF, LRF per window). *)
  mutable tr_rows : int array;
  mutable tr_exec : int array;
  mutable tr_flags : int array;
  mutable tr_live : int array;
  mutable tr_issued : int array;
  mutable tr_cached : bool array;
  mutable tr_rfc : int array;
  mutable tr_bins : int array;
}

let create () =
  {
    dec_ctx = None;
    dec = None;
    ids = [||];
    pc = [||];
    cf_counters = [||];
    ready = [||];
    ready_base = [||];
    ll = [||];
    ll_len = [||];
    wake = [||];
    next_active = [||];
    prev_active = [||];
    pending = [||];
    ready_buf = [||];
    rest_buf = [||];
    breakdown = [||];
    stint_cause = [||];
    stint_start = [||];
    stall_until = [||];
    bank_counts = [||];
    conflict_extra = [||];
    unit_free = Array.make 4 0;
    tr_rows = [||];
    tr_exec = [||];
    tr_flags = [||];
    tr_live = [||];
    tr_issued = [||];
    tr_cached = [||];
    tr_rfc = [||];
    tr_bins = [||];
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create

let domain_local () = Domain.DLS.get key

let dec_for t (ctx : Alloc.Context.t) =
  match (t.dec, t.dec_ctx) with
  | Some d, Some c when c == ctx -> d
  | _ ->
    let d = Dec.of_context ctx in
    t.dec <- Some d;
    t.dec_ctx <- Some ctx;
    d

(* Growth helpers: arrays only ever grow, contents are re-initialized
   by the run that uses them (values carried over are never read). *)

let grow_ints a n = if Array.length a >= n then a else Array.make n 0

let grow_bools a n = if Array.length a >= n then a else Array.make n false

let grow_rows rows n ~inner =
  let rows =
    if Array.length rows >= n then rows
    else
      Array.init n (fun i -> if i < Array.length rows then rows.(i) else [||])
  in
  for i = 0 to n - 1 do
    if Array.length rows.(i) < inner then rows.(i) <- Array.make inner 0
  done;
  rows

let ensure_warps t ~warps ~num_regs =
  t.ready <- grow_ints t.ready (warps * num_regs);
  t.ready_base <- grow_ints t.ready_base (warps * num_regs);
  t.ll <- grow_rows t.ll warps ~inner:8;
  t.ll_len <- grow_ints t.ll_len warps;
  t.wake <- grow_ints t.wake warps;
  t.next_active <- grow_ints t.next_active warps;
  t.prev_active <- grow_ints t.prev_active warps;
  t.pending <- grow_ints t.pending warps;
  t.ready_buf <- grow_ints t.ready_buf warps;
  t.rest_buf <- grow_ints t.rest_buf warps;
  t.breakdown <- grow_ints t.breakdown (warps * 7);
  t.stint_cause <- grow_ints t.stint_cause warps;
  t.stint_start <- grow_ints t.stint_start warps;
  t.stall_until <- grow_ints t.stall_until warps

let ensure_banks t ~banks ~num_instrs =
  t.bank_counts <- grow_ints t.bank_counts banks;
  Array.fill t.bank_counts 0 banks 0;
  t.conflict_extra <- grow_ints t.conflict_extra num_instrs

let ensure_traffic t ~num_instrs ~num_regs ~rfc_entries ~live_words =
  let rows = num_instrs * Energy.Counts.row_cells in
  t.tr_rows <- grow_ints t.tr_rows rows;
  Array.fill t.tr_rows 0 rows 0;
  t.tr_exec <- grow_ints t.tr_exec num_instrs;
  Array.fill t.tr_exec 0 num_instrs 0;
  t.tr_flags <- grow_ints t.tr_flags num_instrs;
  Array.fill t.tr_flags 0 num_instrs 0;
  t.tr_live <- grow_ints t.tr_live (num_instrs * live_words);
  t.tr_issued <- grow_ints t.tr_issued num_regs;
  Array.fill t.tr_issued 0 num_regs (-1);
  t.tr_cached <- grow_bools t.tr_cached num_regs;
  Array.fill t.tr_cached 0 num_regs false;
  t.tr_rfc <- grow_ints t.tr_rfc rfc_entries

let default_max_dynamic = 100_000

(* Store [v] at [ids.(n)], doubling the table when it is full. *)
let push_id t n v =
  if n >= Array.length t.ids then begin
    let a = Array.make (Int.max 256 (2 * n)) 0 in
    Array.blit t.ids 0 a 0 n;
    t.ids <- a
  end;
  t.ids.(n) <- v

let fill_streams t ~max_dynamic kernel ~warps ~seed =
  t.pc <- grow_ints t.pc warps;
  t.cf_counters <- grow_ints t.cf_counters (2 * Ir.Kernel.block_count kernel);
  let streams = if Cf.warp_invariant kernel then Int.min warps 1 else warps in
  let n = ref 0 in
  let push v =
    push_id t !n v;
    incr n
  in
  for warp = 0 to streams - 1 do
    t.pc.(warp) <- !n;
    Cf.fill ~max_dynamic kernel ~warp ~seed ~counters:t.cf_counters push
  done;
  Array.fill t.pc streams (warps - streams) 0
