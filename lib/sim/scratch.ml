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
  (* Per-warp state (outer index = warp). *)
  mutable cfs : Cf.t array;
  mutable ready : int array array;       (* per register: cycle its value is ready *)
  mutable ready_base : int array array;  (* same, without bank-conflict serialization *)
  mutable ll : int array array;          (* outstanding long-latency ready cycles *)
  mutable ll_len : int array;
  mutable wake : int array;
  (* Two-level scheduler queues and their refill scratch. *)
  mutable active : int array;
  mutable pending : int array;
  mutable in_active : bool array;
  mutable scan : int array;
  mutable ready_buf : int array;
  mutable rest_buf : int array;
  (* Stall attribution.  [span_state]/[span_start] carry the constant
     classification of warps outside the active set (pending or
     retired), accumulated as one span per stint instead of one
     increment per cycle; -1 marks a warp under per-cycle (active)
     classification. *)
  mutable breakdown : int array;         (* warps x 7, row-major *)
  mutable span_state : int array;
  mutable span_start : int array;
  (* Wait bounds for active warps.  The walk skips a warp before its
     [stall_until]: the end of a cached dependence stall (the next
     ready(-base) crossing among its blocked sources; the whole stint
     is credited to [breakdown] when cached) or of an issuable warp's
     busy unit.  [ready_since] is -1, or, for a warp whose current
     instruction was found issuable (it stays so until it issues), the
     first of its No_issue_slot cycles not yet credited. *)
  mutable stall_until : int array;
  mutable ready_since : int array;
  (* Banked-MRF conflict tables. *)
  mutable bank_counts : int array;
  mutable conflict_extra : int array;    (* per instruction *)
  unit_free : int array;
  (* Traffic: per-warp outstanding (register, issue index) pairs. *)
  mutable out_reg : int array;
  mutable out_at : int array;
  mutable out_len : int;
}

let create () =
  {
    dec_ctx = None;
    dec = None;
    cfs = [||];
    ready = [||];
    ready_base = [||];
    ll = [||];
    ll_len = [||];
    wake = [||];
    active = [||];
    pending = [||];
    in_active = [||];
    scan = [||];
    ready_buf = [||];
    rest_buf = [||];
    breakdown = [||];
    span_state = [||];
    span_start = [||];
    stall_until = [||];
    ready_since = [||];
    bank_counts = [||];
    conflict_extra = [||];
    unit_free = Array.make 4 0;
    out_reg = [||];
    out_at = [||];
    out_len = 0;
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
  t.ready <- grow_rows t.ready warps ~inner:num_regs;
  t.ready_base <- grow_rows t.ready_base warps ~inner:num_regs;
  t.ll <- grow_rows t.ll warps ~inner:8;
  t.ll_len <- grow_ints t.ll_len warps;
  t.wake <- grow_ints t.wake warps;
  t.active <- grow_ints t.active warps;
  t.pending <- grow_ints t.pending warps;
  t.in_active <- grow_bools t.in_active warps;
  t.scan <- grow_ints t.scan warps;
  t.ready_buf <- grow_ints t.ready_buf warps;
  t.rest_buf <- grow_ints t.rest_buf warps;
  t.breakdown <- grow_ints t.breakdown (warps * 7);
  t.span_state <- grow_ints t.span_state warps;
  t.span_start <- grow_ints t.span_start warps;
  t.stall_until <- grow_ints t.stall_until warps;
  t.ready_since <- grow_ints t.ready_since warps

let ensure_banks t ~banks ~num_instrs =
  t.bank_counts <- grow_ints t.bank_counts banks;
  Array.fill t.bank_counts 0 banks 0;
  t.conflict_extra <- grow_ints t.conflict_extra num_instrs

let ensure_outstanding t n =
  t.out_reg <- grow_ints t.out_reg n;
  t.out_at <- grow_ints t.out_at n

(* [cfs] grows here rather than in [ensure_warps]: a walker can only be
   created for a kernel. *)
let cf t i ~max_dynamic kernel ~warp ~seed =
  let n = Array.length t.cfs in
  if i >= n then
    t.cfs <-
      Array.init (max (i + 1) (2 * n)) (fun j ->
          if j < n then t.cfs.(j) else Cf.create ~max_dynamic kernel ~warp:j ~seed);
  let cf = t.cfs.(i) in
  Cf.reset cf ~max_dynamic kernel ~warp ~seed;
  cf
