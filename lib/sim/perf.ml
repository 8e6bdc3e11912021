type scheduler = Single_level | Two_level of int

type policy = On_dependence | At_strand_boundaries

type stall_cause = Obs.Timeline.state =
  | Issued
  | Wait_long_latency
  | Wait_short_latency
  | Bank_conflict_serialization
  | Descheduled_pending
  | No_issue_slot
  | Finished

type stall_breakdown = {
  issued : int;
  wait_long_latency : int;
  wait_short_latency : int;
  bank_conflict_serialization : int;
  descheduled_pending : int;
  no_issue_slot : int;
  finished : int;
}

type warp_stats = { warp : int; breakdown : stall_breakdown }

type sched_stats = {
  entries : int;
  exits : int;
  resident_cycles : int;
  desched_long_latency : int;
  desched_strand_boundary : int;
  desched_bank_conflict : int;
}

type result = {
  cycles : int;
  instructions : int;
  ipc : float;
  desched_events : int;
  stalls : stall_breakdown;
  per_warp : warp_stats array;
  sched : sched_stats;
}

let cause_index = function
  | Issued -> 0
  | Wait_long_latency -> 1
  | Wait_short_latency -> 2
  | Bank_conflict_serialization -> 3
  | Descheduled_pending -> 4
  | No_issue_slot -> 5
  | Finished -> 6

let cause_of_index = function
  | 0 -> Issued
  | 1 -> Wait_long_latency
  | 2 -> Wait_short_latency
  | 3 -> Bank_conflict_serialization
  | 4 -> Descheduled_pending
  | 5 -> No_issue_slot
  | _ -> Finished

let breakdown_of_array a =
  {
    issued = a.(0);
    wait_long_latency = a.(1);
    wait_short_latency = a.(2);
    bank_conflict_serialization = a.(3);
    descheduled_pending = a.(4);
    no_issue_slot = a.(5);
    finished = a.(6);
  }

(* Row [w] of the scratch's flat [warps x 7] stall matrix. *)
let breakdown_of_row flat w =
  let b = w * 7 in
  {
    issued = flat.(b);
    wait_long_latency = flat.(b + 1);
    wait_short_latency = flat.(b + 2);
    bank_conflict_serialization = flat.(b + 3);
    descheduled_pending = flat.(b + 4);
    no_issue_slot = flat.(b + 5);
    finished = flat.(b + 6);
  }

let breakdown_get b = function
  | Issued -> b.issued
  | Wait_long_latency -> b.wait_long_latency
  | Wait_short_latency -> b.wait_short_latency
  | Bank_conflict_serialization -> b.bank_conflict_serialization
  | Descheduled_pending -> b.descheduled_pending
  | No_issue_slot -> b.no_issue_slot
  | Finished -> b.finished

let breakdown_fields b =
  List.map (fun c -> (Obs.Timeline.state_name c, breakdown_get b c)) Obs.Timeline.all_states

let breakdown_total b =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (breakdown_fields b)

let stalled_cycles b = breakdown_total b - b.issued - b.finished

let mean_residency s =
  if s.entries = 0 then 0.0 else float_of_int s.resident_cycles /. float_of_int s.entries

(* The tables [rfh timeline] prints, one row per labelled run (or per
   warp of one run). *)

let stall_table ~bench ~warps runs =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Stall attribution: %s (%d warps, %% of cycles x warps)" bench warps)
      ~columns:([ "Config"; "Cycles"; "IPC" ] @ List.map Obs.Timeline.state_name Obs.Timeline.all_states)
  in
  List.iter
    (fun (label, r) ->
      let total = float_of_int (max 1 (breakdown_total r.stalls)) in
      Util.Table.add_row t
        ([ label; string_of_int r.cycles; Printf.sprintf "%.3f" r.ipc ]
        @ List.map
            (fun cause ->
              Printf.sprintf "%.1f%%" (100.0 *. float_of_int (breakdown_get r.stalls cause) /. total))
            Obs.Timeline.all_states))
    runs;
  t

let residency_table runs =
  let t =
    Util.Table.create ~title:"Active-set residency"
      ~columns:
        [ "Config"; "Entries"; "Exits"; "Resident cycles"; "Mean residency"; "Desched LL";
          "Desched strand"; "Desched conflict" ]
  in
  List.iter
    (fun (label, r) ->
      let s = r.sched in
      Util.Table.add_row t
        [
          label;
          string_of_int s.entries;
          string_of_int s.exits;
          string_of_int s.resident_cycles;
          Printf.sprintf "%.1f" (mean_residency s);
          string_of_int s.desched_long_latency;
          string_of_int s.desched_strand_boundary;
          string_of_int s.desched_bank_conflict;
        ])
    runs;
  t

let top_warps_table ~n ~label r =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Top %d stalled warps (%s)" n label)
      ~columns:([ "Warp"; "Stalled" ] @ List.map Obs.Timeline.state_name Obs.Timeline.all_states)
  in
  let ranked =
    List.stable_sort
      (fun a b ->
        match compare (stalled_cycles b.breakdown) (stalled_cycles a.breakdown) with
        | 0 -> compare a.warp b.warp
        | c -> c)
      (Array.to_list r.per_warp)
  in
  List.iteri
    (fun i ws ->
      if i < n then
        Util.Table.add_row t
          ([ string_of_int ws.warp; string_of_int (stalled_cycles ws.breakdown) ]
          @ List.map
              (fun cause -> string_of_int (breakdown_get ws.breakdown cause))
              Obs.Timeline.all_states))
    ranked;
  t

(* The counter bins of a run with Obs.Counters off: never written. *)
let no_bins : (int, int ref) Hashtbl.t = Hashtbl.create 0

let sample_active_warps cycle n =
  Obs.Counters.sample "perf.active_warps" ~at:(float_of_int cycle) (float_of_int n)

let m_runs = Obs.Metrics.counter "sim.perf.runs"
let m_cycles = Obs.Metrics.counter "sim.perf.cycles"
let m_instructions = Obs.Metrics.counter "sim.perf.instructions"
let m_desched = Obs.Metrics.counter "sim.perf.desched_events"

let run_inner ?(warps = 32) ?(seed = 0x5eed) ?(max_dynamic_per_warp = 2_000)
    ?(max_cycles = 10_000_000) ?mrf_banks ?scratch ~scheduler ~policy (ctx : Alloc.Context.t) =
  let s = match scratch with Some s -> s | None -> Scratch.domain_local () in
  let k = ctx.Alloc.Context.kernel in
  let dec = Scratch.dec_for s ctx in
  let au = Obs.Audit.is_enabled () in
  let co = Obs.Counters.is_enabled () in
  let tl = Obs.Timeline.is_enabled () in
  (* Counter-track bins: issue count and register-file operand accesses
     per [counter_window]-cycle window (simulated time, so the tracks
     are byte-deterministic for a fixed seed). *)
  let counter_window = 64 in
  let issued_bins = if co then Hashtbl.create 64 else no_bins in
  let access_bins = if co then Hashtbl.create 64 else no_bins in
  let bin_bump tbl w n =
    match Hashtbl.find_opt tbl w with
    | Some r -> r := !r + n
    | None -> Hashtbl.add tbl w (ref n)
  in
  let nr = max 1 k.Ir.Kernel.num_regs in
  let ni = dec.Dec.num_instrs in
  Scratch.ensure_warps s ~warps ~num_regs:nr;
  for w = 0 to warps - 1 do
    ignore (Scratch.cf s w ~max_dynamic:max_dynamic_per_warp k ~warp:w ~seed)
  done;
  let cfs = s.Scratch.cfs in
  for w = 0 to warps - 1 do
    Array.fill s.Scratch.ready.(w) 0 nr 0;
    Array.fill s.Scratch.ready_base.(w) 0 nr 0;
    s.Scratch.ll_len.(w) <- 0;
    s.Scratch.wake.(w) <- 0;
    s.Scratch.in_active.(w) <- false;
    s.Scratch.stall_until.(w) <- 0;
    s.Scratch.ready_since.(w) <- -1
  done;
  Array.fill s.Scratch.unit_free 0 4 0;
  (* Banked-MRF conflict serialization is a static property of each
     instruction's distinct operands: resolve it into a table now so
     the issue path reads one int. *)
  let banks = match mrf_banks with None -> 0 | Some b -> b in
  if banks <> 0 then begin
    Scratch.ensure_banks s ~banks ~num_instrs:ni;
    for id = 0 to ni - 1 do
      s.Scratch.conflict_extra.(id) <-
        Dec.conflict_extra dec ~banks ~bank_counts:s.Scratch.bank_counts id
    done
  end;
  let active_limit = match scheduler with Single_level -> warps | Two_level n -> max 1 n in
  let at_strand = policy = At_strand_boundaries in
  let two_level = match scheduler with Two_level _ -> true | Single_level -> false in
  (* Active set as an ordered prefix of [s.active] (round-robin rotates
     it); the rest sit in [s.pending] and re-enter in wake order. *)
  let active = s.Scratch.active in
  let pending = s.Scratch.pending in
  let in_active = s.Scratch.in_active in
  let init_active = if active_limit < warps then active_limit else warps in
  for i = 0 to init_active - 1 do
    active.(i) <- i;
    in_active.(i) <- true
  done;
  for i = 0 to warps - init_active - 1 do
    pending.(i) <- init_active + i
  done;
  let active_len = ref init_active in
  let pending_len = ref (warps - init_active) in
  let cycle = ref 0 in
  let instructions = ref 0 in
  let desched_events = ref 0 in
  let entries = ref init_active in
  let exits = ref 0 in
  let resident_cycles = ref 0 in
  let desched_ll = ref 0 in
  let desched_strand = ref 0 in
  let desched_conflict = ref 0 in
  (* Unfinished warps: only [issue] can finish a warp, so the loop's
     termination test is one compare instead of a scan over all warps. *)
  let live = ref 0 in
  for w = 0 to warps - 1 do
    if not (Cf.finished cfs.(w)) then incr live
  done;
  (* Exact warp-cycle accounting: every cycle classifies every warp
     into one stall cause, so row w sums to the run's cycle count and
     the whole matrix sums to cycles x warps.  Active warps classify
     when their state is decided — a cached stall credits its whole
     stint at once, an issuable warp its waiting cycles when it issues
     (see [cache_stall] and [try_issue]).  Warps outside the active
     set have a constant state for the whole stint (a pending warp's
     PC never moves, so its done-ness and cause are fixed between
     queue transitions), so they accumulate one
     [span_state]/[span_start] span instead, flushed into the same
     matrix at the next transition or at end of run. *)
  let breakdown = s.Scratch.breakdown in
  Array.fill breakdown 0 (warps * 7) 0;
  let span_state = s.Scratch.span_state in
  let span_start = s.Scratch.span_start in
  for w = 0 to warps - 1 do
    if in_active.(w) then span_state.(w) <- -1
    else begin
      span_state.(w) <-
        cause_index (if Cf.finished cfs.(w) then Finished else Descheduled_pending);
      span_start.(w) <- 0
    end
  done;
  (* Open timeline interval per warp: (state, start cycle).  Closed
     intervals accumulate newest-first and are emitted at end of run. *)
  let open_iv : (stall_cause * int) option array =
    if tl then Array.make warps None else [||]
  in
  let closed_ivs : Obs.Timeline.interval list array =
    if tl then Array.make warps [] else [||]
  in
  let unit_free = s.Scratch.unit_free in
  (* Outstanding long-latency ready cycles, per warp: a compacting
     int buffer + count.  Compaction (dropping entries <= now) is
     observably neutral — membership is only ever tested against ready
     cycles > now, emptiness and wake maxima are defined on entries
     > now — so the mutating paths compact opportunistically while
     [ll_any_pure] keeps the start-of-cycle probe genuinely read-only. *)
  (* All loop helpers take every variable as an argument: a [let rec]
     that closes over locals of an enclosing per-call function would
     allocate a closure on each call. *)
  let rec ll_keep buf n now i m =
    if i >= n then m
    else begin
      let t = buf.(i) in
      if t > now then begin
        buf.(m) <- t;
        ll_keep buf n now (i + 1) (m + 1)
      end
      else ll_keep buf n now (i + 1) m
    end
  in
  let ll_compact w now =
    s.Scratch.ll_len.(w) <- ll_keep s.Scratch.ll.(w) s.Scratch.ll_len.(w) now 0 0
  in
  let ll_add w v now =
    ll_compact w now;
    let buf = s.Scratch.ll.(w) in
    let n = s.Scratch.ll_len.(w) in
    let buf =
      if n < Array.length buf then buf
      else begin
        let nb = Array.make (2 * Array.length buf) 0 in
        Array.blit buf 0 nb 0 n;
        s.Scratch.ll.(w) <- nb;
        nb
      end
    in
    buf.(n) <- v;
    s.Scratch.ll_len.(w) <- n + 1
  in
  let rec ll_any_from buf n now i = i < n && (buf.(i) > now || ll_any_from buf n now (i + 1)) in
  let ll_any_pure w now = ll_any_from s.Scratch.ll.(w) s.Scratch.ll_len.(w) now 0 in
  let rec ll_mem_from buf n v i = i < n && (buf.(i) = v || ll_mem_from buf n v (i + 1)) in
  let ll_mem w v = ll_mem_from s.Scratch.ll.(w) s.Scratch.ll_len.(w) v 0 in
  let rec ll_max_from buf n acc i =
    if i >= n then acc
    else ll_max_from buf n (if buf.(i) > acc then buf.(i) else acc) (i + 1)
  in
  let ll_max w acc = ll_max_from s.Scratch.ll.(w) s.Scratch.ll_len.(w) acc 0 in
  let warp_done w = Cf.finished cfs.(w) in
  (* Close warp [w]'s constant-state span at cycle [stop]: credit the
     whole stint to its stall matrix row in one add, and feed the
     timeline the state change exactly where per-cycle classification
     would have (identical consecutive states merge into one interval
     either way). *)
  let span_flush w stop =
    let si = span_state.(w) in
    if si >= 0 then begin
      let start = span_start.(w) in
      if stop > start then begin
        let ci = (w * 7) + si in
        breakdown.(ci) <- breakdown.(ci) + (stop - start);
        if tl then begin
          let cause = cause_of_index si in
          match open_iv.(w) with
          | Some (st, _) when st = cause -> ()
          | Some (st, s0) ->
            closed_ivs.(w) <-
              { Obs.Timeline.warp = w; state = st; start = s0; stop = start }
              :: closed_ivs.(w);
            open_iv.(w) <- Some (cause, start)
          | None -> open_iv.(w) <- Some (cause, start)
        end
      end
    end
  in
  (* Span end for warps a refill promotes: the start-of-cycle refill
     runs before classification (the promoted warp is classified as
     active this cycle), a mid-walk refill after it (the warp already
     owes this cycle as pending). *)
  let promote_end = ref 0 in
  (* Conservative lower bound on the earliest wake among non-finished
     pending warps: while it sits in the future the partition below
     would find nothing ready and reorder nothing, so the scan is
     skipped entirely. *)
  let wake_min = ref 0 in
  (* Refill partition counters, hoisted so refills allocate nothing. *)
  let nready = ref 0 in
  let nrest = ref 0 in
  let refill_active () =
    let missing = active_limit - !active_len in
    if missing > 0 && !pending_len > 0 && !wake_min <= !cycle then begin
      let now = !cycle in
      nready := 0;
      nrest := 0;
      for i = 0 to !pending_len - 1 do
        let w = pending.(i) in
        if s.Scratch.wake.(w) <= now && not (warp_done w) then begin
          s.Scratch.ready_buf.(!nready) <- w;
          incr nready
        end
        else begin
          s.Scratch.rest_buf.(!nrest) <- w;
          incr nrest
        end
      done;
      let take = if !nready < missing then !nready else missing in
      for j = 0 to take - 1 do
        let w = s.Scratch.ready_buf.(j) in
        span_flush w !promote_end;
        span_state.(w) <- -1;
        active.(!active_len) <- w;
        active_len := !active_len + 1;
        in_active.(w) <- true
      done;
      entries := !entries + take;
      (* New pending order: leftover ready warps first, then the rest —
         the wake-order refill contract. *)
      pending_len := 0;
      wake_min := max_int;
      for j = take to !nready - 1 do
        let w = s.Scratch.ready_buf.(j) in
        pending.(!pending_len) <- w;
        pending_len := !pending_len + 1;
        if s.Scratch.wake.(w) < !wake_min then wake_min := s.Scratch.wake.(w)
      done;
      for j = 0 to !nrest - 1 do
        let w = s.Scratch.rest_buf.(j) in
        pending.(!pending_len) <- w;
        pending_len := !pending_len + 1;
        if s.Scratch.wake.(w) < !wake_min && not (warp_done w) then
          wake_min := s.Scratch.wake.(w)
      done
    end
  in
  let rec index_of arr n w i =
    if i >= n then -1 else if arr.(i) = w then i else index_of arr n w (i + 1)
  in
  let remove_active w =
    let n = !active_len in
    let i = index_of active n w 0 in
    if i >= 0 then begin
      Array.blit active (i + 1) active i (n - i - 1);
      active_len := n - 1;
      in_active.(w) <- false
    end
  in
  let deschedule w ~wake =
    s.Scratch.wake.(w) <- wake;
    if wake < !wake_min then wake_min := wake;
    (* The warp was classified as active for this cycle; its pending
       span starts next cycle (a wake is always in the future, so the
       refill below cannot promote it back within this cycle). *)
    span_state.(w) <- 4 (* Descheduled_pending *);
    span_start.(w) <- !cycle + 1;
    remove_active w;
    pending.(!pending_len) <- w;
    pending_len := !pending_len + 1;
    incr desched_events;
    incr exits;
    refill_active ()
  in
  let audit_desched w id cause =
    (match cause with
     | Obs.Audit.Sw_boundary -> incr desched_strand
     | Obs.Audit.Bank_conflict -> incr desched_conflict
     | Obs.Audit.Hw_dependence | Obs.Audit.Scheduler -> incr desched_ll);
    if au then Obs.Audit.emit (Obs.Audit.Desched { warp = w; instr = id; cause })
  in
  (* One pass over the instruction's predecoded sources, leaving its
     findings in these cells (ints and bools only — the stores never
     allocate): the issue-blocking state both [try_issue] and the
     classification probe branch on. *)
  let scan_wait = ref 0 in
  let scan_blocked = ref false in
  let scan_base = ref false in
  let scan_ll = ref false in
  (* Earliest future ready or ready-base crossing among the blocked
     sources: the first cycle this instruction's blocked classification
     could change. *)
  let scan_next = ref 0 in
  let scan_srcs w id now =
    scan_wait := now;
    scan_blocked := false;
    scan_base := false;
    scan_ll := false;
    scan_next := max_int;
    let ready = s.Scratch.ready.(w) in
    let ready_base = s.Scratch.ready_base.(w) in
    let base = id * Dec.max_srcs in
    for p = 0 to dec.Dec.nsrcs.(id) - 1 do
      let r = dec.Dec.srcs.(base + p) in
      let rr = ready.(r) in
      if rr > now then begin
        scan_blocked := true;
        if rr > !scan_wait then scan_wait := rr;
        if rr < !scan_next then scan_next := rr;
        (* A dependence whose base latency has elapsed is only still
           blocked by banked-MRF conflict serialization. *)
        let rb = ready_base.(r) in
        if rb > now then begin
          scan_base := true;
          if rb < !scan_next then scan_next := rb
        end;
        if ll_mem w rr then scan_ll := true
      end
    done
  in
  (* The issue side effects for instruction [id] of warp [w]: book the
     unit, post the destination's ready cycles, track long-latency
     completion, advance the PC and rotate the issuer to the back of
     the active queue (round-robin). *)
  let issue w id now =
    let extra = if banks = 0 then 0 else s.Scratch.conflict_extra.(id) in
    if co then begin
      let win = now / counter_window in
      bin_bump issued_bins win 1;
      bin_bump access_bins win
        (dec.Dec.nsrcs.(id) + if dec.Dec.dst.(id) >= 0 then 1 else 0)
    end;
    unit_free.(dec.Dec.unit_of.(id)) <- now + dec.Dec.issue_cycles.(id);
    let d = dec.Dec.dst.(id) in
    if d >= 0 then begin
      let rb = now + dec.Dec.latency.(id) in
      s.Scratch.ready_base.(w).(d) <- rb;
      s.Scratch.ready.(w).(d) <- rb + extra;
      if dec.Dec.is_ll.(id) then ll_add w (rb + extra) now
    end;
    Cf.advance cfs.(w);
    if Cf.finished cfs.(w) then decr live;
    s.Scratch.ready_since.(w) <- -1;
    incr instructions;
    remove_active w;
    active.(!active_len) <- w;
    active_len := !active_len + 1;
    in_active.(w) <- true
  in
  let classify w cause =
    let ci = (w * 7) + cause_index cause in
    breakdown.(ci) <- breakdown.(ci) + 1;
    if tl then begin
      match open_iv.(w) with
      | Some (st, _) when st = cause -> ()
      | Some (st, start) ->
        closed_ivs.(w) <-
          { Obs.Timeline.warp = w; state = st; start; stop = !cycle } :: closed_ivs.(w);
        open_iv.(w) <- Some (cause, !cycle)
      | None -> open_iv.(w) <- Some (cause, !cycle)
    end
  in
  (* Classification and issue fused into ONE active-order walk per
     cycle.  The attribution stays exact — every warp-cycle classifies
     against start-of-cycle state, exactly as a pure probe pass
     followed by an issue pass would — because the only cross-warp
     state an issue mutates is [unit_free], and a warp reached after
     the issuer classifies [No_issue_slot] either way: its unit is
     booked for at least a full cycle, or the single issue slot is
     gone.  Per-warp effects (ready times, the ll buffer, the PC)
     touch only the issuing warp, which the walk never revisits.
     Warps ahead of the issuer in round-robin order take their
     deschedule side effects as they are classified (the scan stops
     acting, but not classifying, at the first issuer); warps a
     mid-walk refill promotes were already classified as pending and
     wait for the next cycle.  Fusing halves the per-active-warp scan
     work the split walks duplicated. *)
  let issued = ref false in
  let stall_until = s.Scratch.stall_until in
  let ready_since = s.Scratch.ready_since in
  let credit w ci n =
    let k = (w * 7) + ci in
    breakdown.(k) <- breakdown.(k) + n
  in
  (* Stall cache.  Classify warp [w] as [ci] now and credit the rest of
     the stint, up to [until] (clamped to the cut-off), to its stall
     matrix row in one add: the cause provably holds through
     [until - 1], so the cached steps in between touch nothing (the
     timeline interval opened here stays open, as per-cycle
     classification of the same cause would leave it) and a dead-cycle
     jump over them adds nothing either.  The entry self-invalidates:
     an issue or a promotion only happens at a cycle >= [until]. *)
  let cache_stall w ci until =
    classify w (cause_of_index ci);
    stall_until.(w) <- until;
    let stop = if until < max_cycles then until else max_cycles in
    if stop > !cycle + 1 then credit w ci (stop - !cycle - 1)
  in
  (* A warp found issuable stays so until it issues: only its own issue
     writes its scoreboard and long-latency buffer, and ready cycles
     only pass.  So it is [No_issue_slot] on every cycle from
     [ready_since] up to its issue, whether its unit is busy or it
     loses arbitration, and those cycles are credited in one add when
     it issues (or when the run ends).  A busy unit stays booked until
     [unit_free] — nobody can issue on it before then — so the walk
     skips the warp until that cycle.  Returns whether it issued. *)
  let try_issue w id now =
    let free = unit_free.(dec.Dec.unit_of.(id)) in
    if free > now then begin
      stall_until.(w) <- free;
      false
    end
    else if !issued then false
    else begin
      credit w 5 (* No_issue_slot *) (now - ready_since.(w));
      classify w Issued;
      issued := true;
      issue w id now;
      true
    end
  in
  (* One uncached active warp that has not been found issuable. *)
  let step_active w =
    let now = !cycle in
    let id = Cf.peek_id cfs.(w) in
    if id < 0 then begin
      classify w Finished;
      if not !issued then begin
        remove_active w;
        incr exits;
        (* Retired for good: neither queue will see it again, so the
           rest of the run is one Finished span starting next cycle. *)
        span_state.(w) <- 6 (* Finished *);
        span_start.(w) <- now + 1;
        refill_active ()
      end
    end
    else if at_strand && dec.Dec.starts_strand.(id) && ll_any_pure w now then begin
      classify w Wait_long_latency;
      if not !issued then begin
        audit_desched w id Obs.Audit.Sw_boundary;
        ll_compact w now;
        deschedule w ~wake:(ll_max w now)
      end
    end
    else begin
      scan_srcs w id now;
      if !scan_blocked then begin
        let ci =
          if not !scan_base then 3 (* Bank_conflict_serialization *)
          else if !scan_ll then 1 (* Wait_long_latency *)
          else 2 (* Wait_short_latency *)
        in
        if (not at_strand) && two_level && !scan_ll then begin
          (* Deschedule candidate.  Post-issue the scan has stopped
             acting for this cycle, and the deschedule must happen on
             a later pre-issue walk — so this case is never cached. *)
          classify w (cause_of_index ci);
          if not !issued then begin
            audit_desched w id
              (if !scan_base then Obs.Audit.Hw_dependence else Obs.Audit.Bank_conflict);
            deschedule w ~wake:!scan_wait
          end
        end
        else
          (* Dependence-blocked: the warp's own registers are frozen
             (it cannot issue) and its blocked source set only shrinks
             as ready cycles pass, so the cause holds — and [scan_ll]
             can never flip on, so no deschedule is missed — until the
             earliest crossing recorded by the scan. *)
          cache_stall w ci !scan_next
      end
      else begin
        ready_since.(w) <- now;
        if not (try_issue w id now) then begin
          (* The first No_issue_slot cycle also opens the interval. *)
          classify w No_issue_slot;
          ready_since.(w) <- now + 1
        end
      end
    end
  in
  let scan = s.Scratch.scan in
  (* Dead-cycle jump.  A cycle that issues nothing and moves no warp
     out of the active set leaves every active warp waiting on a known
     cycle — a cached stall, or an issuable warp's busy unit — so each
     following cycle would repeat it exactly, skipping every warp and
     refilling nothing, until the first of: a wait ends (the horizon),
     a pending warp may wake into a free slot ([wake_min]), or the
     cut-off.  Those cycles are skipped; only their residency and the
     perf.active_warps samples that would have fallen in them are
     still owed.  The loop body stays in place (no per-run closure for
     the walk), so its cells are not heap-allocated. *)
  while !live > 0 && !cycle < max_cycles do
    promote_end := !cycle;
    refill_active ();
    if co && !cycle mod counter_window = 0 then sample_active_warps !cycle !active_len;
    promote_end := !cycle + 1;
    let exits0 = !exits in
    issued := false;
    (* Walk a snapshot: membership changes (deschedules, refills)
       apply to the live queue directly and survive the scan.  Warps
       outside the snapshot are covered by their open spans — pending
       and retired warps owe this cycle at their constant state, and a
       mid-walk promotion closes the span at the next cycle boundary
       ([promote_end]), so every warp-cycle lands in the matrix exactly
       once. *)
    let n = !active_len in
    Array.blit active 0 scan 0 n;
    resident_cycles := !resident_cycles + n;
    let now = !cycle in
    (* Earliest cycle at which a walked warp's wait ends; a warp left
       waiting on nothing holds a stale bound <= [now]. *)
    let horizon = ref max_int in
    for i = 0 to n - 1 do
      let w = scan.(i) in
      (* Cached and issuable warps owe nothing per cycle; an issuable
         one is only looked at until the cycle's issue slot is taken. *)
      if stall_until.(w) <= now then begin
        if ready_since.(w) < 0 then step_active w
        else if not !issued then ignore (try_issue w (Cf.peek_id cfs.(w)) now)
      end;
      if stall_until.(w) < !horizon then horizon := stall_until.(w)
    done;
    let next = now + 1 in
    if !issued || !exits <> exits0 || !horizon <= next then cycle := next
    else begin
      let target = !horizon in
      let target =
        if !active_len < active_limit && !pending_len > 0 && !wake_min < target then !wake_min
        else target
      in
      let target = if max_cycles < target then max_cycles else target in
      resident_cycles := !resident_cycles + ((target - next) * !active_len);
      if co then begin
        let b = ref ((next + counter_window - 1) / counter_window * counter_window) in
        while !b < target do
          sample_active_warps !b !active_len;
          b := !b + counter_window
        done
      end;
      cycle := target
    end
  done;
  (* Close the spans still open — descheduled and retired warps owe
     every cycle through the end of the run, issuable ones their
     No_issue_slot cycles since [ready_since]. *)
  for w = 0 to warps - 1 do
    span_flush w !cycle;
    if ready_since.(w) >= 0 then credit w 5 (!cycle - ready_since.(w))
  done;
  if tl then
    for w = 0 to warps - 1 do
      (match open_iv.(w) with
       | Some (st, start) when !cycle > start ->
         closed_ivs.(w) <-
           { Obs.Timeline.warp = w; state = st; start; stop = !cycle } :: closed_ivs.(w)
       | _ -> ());
      List.iter Obs.Timeline.emit (List.rev closed_ivs.(w))
    done;
  if co then
    List.iter
      (fun (name, tbl) ->
        Hashtbl.fold (fun w r acc -> (w, !r) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
        |> List.iter (fun (w, v) ->
               Obs.Counters.sample name
                 ~at:(float_of_int (w * counter_window))
                 (float_of_int v)))
      [ ("perf.issued", issued_bins); ("perf.rf_accesses", access_bins) ];
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:!cycle m_cycles;
  Obs.Metrics.incr ~by:!instructions m_instructions;
  Obs.Metrics.incr ~by:!desched_events m_desched;
  let totals = Array.make 7 0 in
  for w = 0 to warps - 1 do
    for c = 0 to 6 do
      totals.(c) <- totals.(c) + breakdown.((w * 7) + c)
    done
  done;
  {
    cycles = !cycle;
    instructions = !instructions;
    ipc = (if !cycle = 0 then 0.0 else float_of_int !instructions /. float_of_int !cycle);
    desched_events = !desched_events;
    stalls = breakdown_of_array totals;
    per_warp = Array.init warps (fun w -> { warp = w; breakdown = breakdown_of_row breakdown w });
    sched =
      {
        entries = !entries;
        exits = !exits;
        resident_cycles = !resident_cycles;
        desched_long_latency = !desched_ll;
        desched_strand_boundary = !desched_strand;
        desched_bank_conflict = !desched_conflict;
      };
  }

let run ?warps ?seed ?max_dynamic_per_warp ?max_cycles ?mrf_banks ?scratch ~scheduler ~policy
    ctx =
  Obs.Span.with_span "simulate.perf" (fun () ->
      run_inner ?warps ?seed ?max_dynamic_per_warp ?max_cycles ?mrf_banks ?scratch ~scheduler
        ~policy ctx)
