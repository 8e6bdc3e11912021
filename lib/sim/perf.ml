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

type sched_stats = Obs.Manifest.sched = {
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

let mean_residency = Obs.Manifest.mean_residency

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
      let total = float_of_int (Int.max 1 (breakdown_total r.stalls)) in
      Util.Table.add_row t
        ([ label; string_of_int r.cycles; Printf.sprintf "%.3f" r.ipc ]
        @ List.map
            (fun cause ->
              Printf.sprintf "%.1f%%" (100.0 *. float_of_int (breakdown_get r.stalls cause) /. total))
            Obs.Timeline.all_states))
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

(* The stall row of a dependence-blocked scan: bank conflicts once every
   blocked source's base latency has elapsed, else a long or short wait. *)
let blocked_row ~base ~ll = if not base then 3 else if ll then 1 else 2

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
  let nr = Int.max 1 k.Ir.Kernel.num_regs in
  let ni = dec.Dec.num_instrs in
  Scratch.ensure_warps s ~warps ~num_regs:nr;
  (* Each warp's instruction stream, filled once per distinct stream
     before the loop: warp [w]'s next instruction is [ids.(pc.(w))]
     (negative once it is done), and issuing advances [pc.(w)] by one. *)
  Scratch.fill_streams s ~max_dynamic:max_dynamic_per_warp k ~warps ~seed;
  let ids = s.Scratch.ids and pc = s.Scratch.pc in
  (* Scoreboards: warp [w]'s register [r] at [w * nr + r]. *)
  let ready = s.Scratch.ready and ready_base = s.Scratch.ready_base in
  Array.fill ready 0 (warps * nr) 0;
  Array.fill ready_base 0 (warps * nr) 0;
  let ll = s.Scratch.ll and ll_len = s.Scratch.ll_len and wake = s.Scratch.wake in
  Array.fill ll_len 0 warps 0;
  Array.fill wake 0 warps 0;
  Array.fill s.Scratch.unit_free 0 4 0;
  (* The predecoded columns the walk reads. *)
  let nsrcs = dec.Dec.nsrcs and srcs = dec.Dec.srcs and dst = dec.Dec.dst in
  let unit_of = dec.Dec.unit_of and issue_cycles = dec.Dec.issue_cycles in
  let latency = dec.Dec.latency and is_ll = dec.Dec.is_ll in
  let starts_strand = dec.Dec.starts_strand in
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
  let conflict_extra = s.Scratch.conflict_extra in
  let active_limit = match scheduler with Single_level -> warps | Two_level n -> Int.max 1 n in
  let at_strand = policy = At_strand_boundaries in
  let two_level = match scheduler with Two_level _ -> true | Single_level -> false in
  (* Active set as a doubly linked queue over warp ids in round-robin
     order: [head] first, [tail] last (-1 when empty), each queued
     warp's neighbours in [next_active]/[prev_active] (-1 at the ends),
     so every queue move is an O(1) link update.  The rest sit in
     [s.pending] and re-enter in wake order. *)
  let next_active = s.Scratch.next_active in
  let prev_active = s.Scratch.prev_active in
  let head = ref (-1) in
  let tail = ref (-1) in
  let active_len = ref 0 in
  (* The queue moves here, [classify], and [try_issue] with the
     [issue] it makes are marked [@inline]: each is reached from more
     than one place on the walk's hot path, and a local function with
     more than one caller is called rather than substituted (see the
     long-latency helpers below). *)
  let[@inline] push_back w =
    let t = !tail in
    prev_active.(w) <- t;
    next_active.(w) <- -1;
    if t >= 0 then next_active.(t) <- w else head := w;
    tail := w;
    incr active_len
  in
  let[@inline] unlink w =
    let p = prev_active.(w) and n = next_active.(w) in
    if p >= 0 then next_active.(p) <- n else head := n;
    if n >= 0 then prev_active.(n) <- p else tail := p;
    decr active_len
  in
  let pending = s.Scratch.pending in
  let init_active = if active_limit < warps then active_limit else warps in
  for w = 0 to init_active - 1 do
    push_back w
  done;
  for i = 0 to warps - init_active - 1 do
    pending.(i) <- init_active + i
  done;
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
    if ids.(pc.(w)) >= 0 then incr live
  done;
  (* Exact warp-cycle accounting: every warp is in one open stint, a
     stall row of [breakdown] and the cycle it began, from cycle 0 to
     the end of the run.  [classify] moves a warp to a new row at a
     cycle, crediting the stint it ends, and the run's end closes every
     stint, so row w sums to the run's cycle count and the whole matrix
     sums to cycles x warps.  Active warps start in an empty [Issued]
     stint that their first classification ends; initially pending
     warps in the pending (or, already done, [Finished]) stint they
     keep until promoted. *)
  let breakdown = s.Scratch.breakdown in
  Array.fill breakdown 0 (warps * 7) 0;
  let stint_cause = s.Scratch.stint_cause in
  let stint_start = s.Scratch.stint_start in
  let stall_until = s.Scratch.stall_until in
  for w = 0 to warps - 1 do
    stint_start.(w) <- 0;
    if w < init_active then begin
      stint_cause.(w) <- 0 (* Issued *);
      stall_until.(w) <- 0
    end
    else begin
      stint_cause.(w) <- (if ids.(pc.(w)) < 0 then 6 (* Finished *) else 4 (* pending *));
      stall_until.(w) <- max_int
    end
  done;
  (* With the timeline recorder on, each ended stint is one interval;
     they accumulate newest-first and are emitted at end of run. *)
  let closed_ivs : Obs.Timeline.interval list array =
    if tl then Array.make warps [] else [||]
  in
  (* End warp [w]'s stint at cycle [t]: the one place a warp-cycle is
     credited.  An empty stint (two classifications in one cycle) adds
     nothing and emits no interval. *)
  let[@inline] end_stint w t =
    let si = stint_cause.(w) and start = stint_start.(w) in
    let k = (w * 7) + si in
    breakdown.(k) <- breakdown.(k) + (t - start);
    if tl && t > start then
      closed_ivs.(w) <-
        { Obs.Timeline.warp = w; state = cause_of_index si; start; stop = t } :: closed_ivs.(w)
  in
  (* Warp [w] is in row [ci] from cycle [t] on.  Every caller passes the
     first cycle of the cause it names, and a call with the warp's
     current row changes nothing, so a stint runs from one change of
     cause to the next, and its interval is the merged one per-cycle
     classification would emit. *)
  let[@inline] classify w ci t =
    if stint_cause.(w) <> ci then begin
      end_stint w t;
      stint_cause.(w) <- ci;
      stint_start.(w) <- t
    end
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
  let rec ll_keep (buf : int array) n now i m =
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
  let ll_compact w now = ll_len.(w) <- ll_keep ll.(w) ll_len.(w) now 0 0 in
  let ll_add w v now =
    ll_compact w now;
    let buf = ll.(w) in
    let n = ll_len.(w) in
    let buf =
      if n < Array.length buf then buf
      else begin
        let nb = Array.make (2 * Array.length buf) 0 in
        Array.blit buf 0 nb 0 n;
        ll.(w) <- nb;
        nb
      end
    in
    buf.(n) <- v;
    ll_len.(w) <- n + 1
  in
  let rec ll_any_from (buf : int array) n now i =
    i < n && (buf.(i) > now || ll_any_from buf n now (i + 1))
  in
  (* The helpers marked [@inline] serve both the step and the
     catch-up: a local function with one caller is substituted into it,
     one with two is called, and these sit on the walk's hot path. *)
  let[@inline] ll_any_pure w now = ll_any_from ll.(w) ll_len.(w) now 0 in
  let rec ll_mem_from (buf : int array) n v i =
    i < n && (buf.(i) = v || ll_mem_from buf n v (i + 1))
  in
  let[@inline] ll_mem w v = ll_mem_from ll.(w) ll_len.(w) v 0 in
  let rec ll_max_from (buf : int array) n acc i =
    if i >= n then acc
    else ll_max_from buf n (if buf.(i) > acc then buf.(i) else acc) (i + 1)
  in
  let[@inline] ll_max w acc = ll_max_from ll.(w) ll_len.(w) acc 0 in
  let warp_done w = ids.(pc.(w)) < 0 in
  (* The first cycle a refill-promoted warp is classified as active,
     which ends its pending stint: the start-of-cycle refill runs
     before classification (the promoted warp is classified as active
     this cycle), a mid-walk refill after it (the warp is pending
     through this cycle). *)
  let promote_end = ref 0 in
  (* Conservative lower bound on the earliest wake among non-finished
     pending warps: while it sits in the future the partition below
     would find nothing ready and reorder nothing, so the scan is
     skipped entirely. *)
  let wake_min = ref 0 in
  (* Refill partition counters, hoisted so refills allocate nothing. *)
  let nready = ref 0 in
  let nrest = ref 0 in
  let ready_buf = s.Scratch.ready_buf and rest_buf = s.Scratch.rest_buf in
  let refill_active () =
    let missing = active_limit - !active_len in
    if missing > 0 && !pending_len > 0 && !wake_min <= !cycle then begin
      let now = !cycle in
      nready := 0;
      nrest := 0;
      for i = 0 to !pending_len - 1 do
        let w = pending.(i) in
        if wake.(w) <= now && not (warp_done w) then begin
          ready_buf.(!nready) <- w;
          incr nready
        end
        else begin
          rest_buf.(!nrest) <- w;
          incr nrest
        end
      done;
      let take = if !nready < missing then !nready else missing in
      for j = 0 to take - 1 do
        let w = ready_buf.(j) in
        stall_until.(w) <- !promote_end;
        push_back w
      done;
      entries := !entries + take;
      (* New pending order: leftover ready warps first, then the rest —
         the wake-order refill contract. *)
      pending_len := 0;
      wake_min := max_int;
      for j = take to !nready - 1 do
        let w = ready_buf.(j) in
        pending.(!pending_len) <- w;
        pending_len := !pending_len + 1;
        if wake.(w) < !wake_min then wake_min := wake.(w)
      done;
      for j = 0 to !nrest - 1 do
        let w = rest_buf.(j) in
        pending.(!pending_len) <- w;
        pending_len := !pending_len + 1;
        if wake.(w) < !wake_min && not (warp_done w) then wake_min := wake.(w)
      done
    end
  in
  let deschedule w ~wake:at =
    wake.(w) <- at;
    if at < !wake_min then wake_min := at;
    (* The warp was classified as active for this cycle; its pending
       stint starts next cycle (a wake is always in the future, so the
       refill below cannot promote it back within this cycle) and holds
       until its first classification as active, at the [promote_end]
       of the refill that promotes it.  Till then it owes no catch-up. *)
    classify w 4 (* Descheduled_pending *) (!cycle + 1);
    stall_until.(w) <- max_int;
    unlink w;
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
  let[@inline] scan_srcs w id now =
    scan_wait := now;
    scan_blocked := false;
    scan_base := false;
    scan_ll := false;
    scan_next := max_int;
    let row = w * nr in
    let base = id * Dec.max_srcs in
    for p = 0 to nsrcs.(id) - 1 do
      let r = row + srcs.(base + p) in
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
  let[@inline] issue w id now =
    let extra = if banks = 0 then 0 else conflict_extra.(id) in
    if co then begin
      let win = now / counter_window in
      bin_bump issued_bins win 1;
      bin_bump access_bins win (nsrcs.(id) + if dst.(id) >= 0 then 1 else 0)
    end;
    unit_free.(unit_of.(id)) <- now + issue_cycles.(id);
    let d = dst.(id) in
    if d >= 0 then begin
      let rb = now + latency.(id) in
      ready_base.((w * nr) + d) <- rb;
      ready.((w * nr) + d) <- rb + extra;
      if is_ll.(id) then ll_add w (rb + extra) now
    end;
    let p = pc.(w) + 1 in
    pc.(w) <- p;
    if ids.(p) < 0 then decr live;
    stall_until.(w) <- now + 1;
    incr instructions;
    unlink w;
    push_back w
  in
  (* Classification and issue fused into ONE active-order walk per
     cycle, which ends at the warp that issues.  Every warp it visits
     classifies against start-of-cycle state, exactly as a pure probe
     pass followed by an issue pass would: the only cross-warp state an
     issue mutates is [unit_free] and the cycle's one issue slot, and
     the warps ahead of the issuer are classified already.  Warps
     behind the issuer can no longer issue, deschedule or retire this
     cycle, and what they would be classified as depends on their own
     frozen state alone, so the walk leaves them: each is decided
     through its [stall_until] and classifies the cycles after it at
     its next visit ([catch_up]).  Warps a mid-walk refill promotes are
     pending through this cycle and wait for the next.  Fusing halves
     the per-active-warp scan work the split walks duplicated. *)
  let issued = ref false in
  (* Stall cache.  Classify warp [w] as [ci] from cycle [t]: the cause
     provably holds through [until - 1], so the walk skips the warp
     until then and a dead-cycle jump over those cycles touches nothing;
     the stint stays open until the next classification, at or after
     [until], or the end of the run, which comes no later than the
     cut-off.  The entry self-invalidates: an issue or a promotion only
     happens at a cycle >= [until]. *)
  let[@inline] cache_stall w ci until t =
    classify w ci t;
    stall_until.(w) <- until
  in
  (* A warp found issuable stays so until it issues: only its own issue
     writes its scoreboard and long-latency buffer, and ready cycles
     only pass.  So its [No_issue_slot] stint runs up to its issue,
     whether its unit is busy or it sat behind an issuer, and the
     walk only tries to issue it.  A busy unit stays booked until
     [unit_free] — nobody can issue on it before then — so the walk
     skips the warp until that cycle.  Returns whether it issued. *)
  let[@inline] try_issue w id now =
    let free = unit_free.(unit_of.(id)) in
    if free > now then begin
      stall_until.(w) <- free;
      false
    end
    else begin
      classify w 0 (* Issued *) now;
      issued := true;
      issue w id now;
      true
    end
  in
  (* Under [On_dependence] a two-level scheduler deschedules a warp
     blocked on a long-latency result at its visit: never cached. *)
  let desched_on_dep = (not at_strand) && two_level in
  (* Catch-up: classify the cycles [stall_until, now) that warp [w], at
     instruction [id] and not issuable, sat behind an issuer (a
     dead-cycle jump never passes a walked warp's [stall_until]: the
     target is at most the horizon).  A visit on those cycles could
     only have classified it, and its ready rows, long-latency buffer
     and PC are frozen while it cannot issue, so the cause changes
     only at the crossings a scan reports.  Each segment gets the cause
     a visit at its first cycle would have given, from that cycle on:
     [Finished] through [now]; at a strand start with long-latency
     results outstanding, [Wait_long_latency] until the last is ready;
     else the scan's blocked cause until [scan_next], or, found
     issuable, [No_issue_slot] until it issues.  A blocked stint past
     [now] that is no deschedule candidate is cached as the skipped
     visit would have cached it.  Returns whether the warp is still to
     be stepped at [now]: not when that cache runs past [now], nor
     when it was found issuable. *)
  let rec catch_up w id now =
    let t = stall_until.(w) in
    if id < 0 then (cache_stall w 6 (* Finished *) now t; true)
    else if at_strand && starts_strand.(id) && ll_any_pure w t then begin
      let e = ll_max w t in
      cache_stall w 1 (* Wait_long_latency *) (if e < now then e else now) t;
      e >= now || catch_up w id now
    end
    else begin
      scan_srcs w id t;
      if !scan_blocked then begin
        let e = !scan_next in
        let e = if e > now && desched_on_dep && !scan_ll then now else e in
        cache_stall w (blocked_row ~base:!scan_base ~ll:!scan_ll) e t;
        if e < now then catch_up w id now else e = now
      end
      else begin
        classify w 5 (* No_issue_slot *) t;
        false
      end
    end
  in
  (* One active warp, at instruction [id], that owes no cycle before
     [now] and has not been found issuable. *)
  let step_active w id now =
    if id < 0 then begin
      (* Retired for good: neither queue will see it again, so its
         [Finished] stint runs to the end of the run. *)
      classify w 6 (* Finished *) now;
      unlink w;
      incr exits;
      refill_active ()
    end
    else if at_strand && starts_strand.(id) && ll_any_pure w now then begin
      classify w 1 (* Wait_long_latency *) now;
      audit_desched w id Obs.Audit.Sw_boundary;
      ll_compact w now;
      deschedule w ~wake:(ll_max w now)
    end
    else begin
      scan_srcs w id now;
      if !scan_blocked then begin
        let ci = blocked_row ~base:!scan_base ~ll:!scan_ll in
        if desched_on_dep && !scan_ll then begin
          classify w ci now;
          audit_desched w id
            (if !scan_base then Obs.Audit.Hw_dependence else Obs.Audit.Bank_conflict);
          deschedule w ~wake:!scan_wait
        end
        else
          (* Dependence-blocked: the warp's own registers are frozen
             (it cannot issue) and its blocked source set only shrinks
             as ready cycles pass, so the cause holds — and [scan_ll]
             can never flip on, so no deschedule is missed — until the
             earliest crossing recorded by the scan. *)
          cache_stall w ci !scan_next now
      end
      else if not (try_issue w id now) then classify w 5 (* No_issue_slot *) now
    end
  in
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
    (* Walk the live queue in place, from the head through [last], the
       warp queued last when the walk began, reading each successor
       after the step.  A step unlinks only the warp being stepped,
       leaving its own links as they were, and appends only behind
       [last] (the issuer moving to the back, a refill promotion), so
       the walk visits the warps queued at its start, in order, and
       ends at the issuer: the move leaves it without a successor.
       Warps outside the walk stay in their open stints — pending and
       retired warps keep their constant cause, and a mid-walk promotion
       ends the pending stint at the next cycle boundary
       ([promote_end]) — and warps behind the issuer classify this cycle
       at their next catch-up, so every warp-cycle lands in the matrix
       exactly once. *)
    resident_cycles := !resident_cycles + !active_len;
    let now = !cycle in
    (* Earliest cycle at which a walked warp's wait ends; a warp left
       waiting on nothing holds a stale bound <= [now]. *)
    let horizon = ref max_int in
    let last = !tail in
    let cur = ref !head in
    while !cur >= 0 do
      let w = !cur in
      (* Cached and issuable warps owe nothing per cycle. *)
      let su = stall_until.(w) in
      if su <= now then begin
        let id = ids.(pc.(w)) in
        (* A warp that sat behind an issuer first classifies what it
           owes, which may leave it cached past [now] or issuable. *)
        if stint_cause.(w) = 5 (* No_issue_slot *) then ignore (try_issue w id now)
        else if su = now || catch_up w id now then step_active w id now
        else if stint_cause.(w) = 5 then ignore (try_issue w id now)
      end;
      if stall_until.(w) < !horizon then horizon := stall_until.(w);
      cur := if w = last then -1 else next_active.(w)
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
  (* End of run.  An active warp still owing cycles behind an issuer
     classifies them first (pending warps hold [max_int], an issuable
     one is [No_issue_slot] through the end, and a retired one only
     re-classifies [Finished], which changes nothing); then every stint
     closes at the last cycle, which is at most the cut-off. *)
  for w = 0 to warps - 1 do
    if stall_until.(w) < !cycle && stint_cause.(w) <> 5 then
      ignore (catch_up w ids.(pc.(w)) !cycle);
    end_stint w !cycle;
    if tl then List.iter Obs.Timeline.emit (List.rev closed_ivs.(w))
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
