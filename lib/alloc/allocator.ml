let m_runs = Obs.Metrics.counter "alloc.runs"
let m_write_units = Obs.Metrics.counter "alloc.write_units"
let m_read_units = Obs.Metrics.counter "alloc.read_units"
let m_lrf_allocated = Obs.Metrics.counter "alloc.lrf_allocated"
let m_orf_allocated = Obs.Metrics.counter "alloc.orf_allocated"
let m_partial_allocated = Obs.Metrics.counter "alloc.partial_allocated"
let m_unit_savings = Obs.Metrics.histogram "alloc.unit_savings"

type stats = {
  write_units : int;
  read_units : int;
  lrf_allocated : int;
  orf_allocated : int;
  partial_allocated : int;
}

(* The candidate table: a candidate is a row of immediates whose index
   is its id, write units first, then read units, in construction
   order.  The row is the allocator's only record of its decision: the
   LRF verdict settled at construction, then the outcome, shortening
   count and estimates the phases write.  Each domain keeps one table,
   as {!Sim.Scratch} keeps the simulator's buffers; its arrays only grow
   and a run writes every cell before reading it, so a warm domain's run
   allocates none of it and no minor collection promotes from it. *)
module F = struct
  (* Row fields, [rows.(c * size + f)]: the span [first, last); 1 for
     a shared-datapath producer; LRF bank or reason code; 1 for an MRF
     copy; outcome level and bank or entry; covered reads (ascending
     operand indices, a read unit's fill first) [ints.(cov ..)] and
     definitions [ints.(defs ..)], none for a read unit. *)
  let reg = 0 and strand = 1 and first = 2 and last = 3 and width = 4 and shared = 5
  let lrf = 6 and mrf_copy = 7 and level = 8 and slot = 9 and shortened = 10
  let cov = 11 and ncov = 12 and defs = 13 and ndefs = 14 and size = 15
end

let mrf = 0 and lrf = 1 and orf = 2

(* Why a candidate has no LRF bank: code [-1 - i] is [reasons.(i)]. *)
let reasons =
  [| "no LRF in this configuration"; "shared-datapath producer"; "wide (multi-word) value";
     "shared-datapath consumer"; "covered reads span operand slots"; "read units are ORF-only" |]

type t = {
  mutable rows : int array;
  mutable n : int;  (* candidates this run *)
  mutable ints : int array;
  mutable n_ints : int;
  mutable est : float array;  (* candidate c's at level l: [ix c l] *)
  mutable prio : float array;  (* per candidate, in the current phase *)
  mutable queue : int array;  (* the LRF queue, then the ORF queue *)
  mutable tmp : int array;  (* merge scratch; before, grouped reads *)
  (* Per instruction, read once per run: its strand, then its result's
     width in words, a long-latency bit and a shared-datapath bit. *)
  mutable facts : int array;
  (* Read units: per register, the current strand's group; per group,
     where its reads end; per unit, its bucket. *)
  mutable cell : int array;
  mutable cell_strand : int array;
  mutable start : int array;
  mutable bucket : int array;
  mutable terms : float array;  (* the run's {!Savings.terms} *)
}

let key =
  Domain.DLS.new_key (fun () ->
      let e = [||] in
      { rows = e; n = 0; ints = e; n_ints = 0; est = [||]; prio = [||]; queue = e; tmp = e;
        facts = e; cell = e; cell_strand = e; start = e; bucket = e; terms = [||] })

(* [a] with room for [n] cells, its contents kept. *)
let grow a n x =
  if Array.length a >= n then a
  else
    let b = Array.make (Int.max n (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b

let get t c f = t.rows.((c * F.size) + f)
let set t c f v = t.rows.((c * F.size) + f) <- v
let is_read_unit t c = get t c F.ndefs = 0
let ix c level = (2 * c) + level - 1
let est t c level = t.est.(ix c level)

let push t v =
  if t.n_ints = Array.length t.ints then t.ints <- grow t.ints (t.n_ints + 1) 0;
  t.ints.(t.n_ints) <- v;
  t.n_ints <- t.n_ints + 1

let read_instr o = o / Ir.Instr.num_slots
let read_slot o = o mod Ir.Instr.num_slots
let strand_of t i = t.facts.(i) lsr 5
let words t i = (t.facts.(i) lsr 2) land 7
let is_ll t i = t.facts.(i) land 2 <> 0
let shared_op t i = t.facts.(i) land 1
let consumer_dp t o = shared_op t (read_instr o)

(* End of the occupancy span that starts at [first]: the write occupies
   at least its own slot, and protection extends up to (excluding) the
   last covered read. *)
let span_end t first cov ncov =
  let e = ref first in
  for j = cov to cov + ncov - 1 do e := Int.max !e (read_instr t.ints.(j)) done;
  Int.max !e (first + 1)

(* Appends a candidate: unpriced, unshortened, in the MRF. *)
let add t ~reg ~strand ~first ~width ~shared ~lrf ~mrf_copy ~cov ~ncov ~defs ~ndefs =
  let c = t.n in
  t.n <- c + 1;
  if t.n * F.size > Array.length t.rows then t.rows <- grow t.rows (t.n * F.size) 0;
  set t c F.reg reg; set t c F.strand strand; set t c F.first first;
  set t c F.last (span_end t first cov ncov); set t c F.width width; set t c F.shared shared;
  set t c F.lrf lrf; set t c F.mrf_copy mrf_copy; set t c F.level mrf; set t c F.shortened 0;
  set t c F.cov cov; set t c F.ncov ncov; set t c F.defs defs; set t c F.ndefs ndefs

(* Candidate [c]'s savings at [level], as {!Savings.write_unit} and
   {!Savings.read_unit} compute them, from the same terms in the same
   order; stored as its last estimate there.  An estimate that uses an
   LRF term of the shared datapath is NaN. *)
let estimate t c level =
  let cov = get t c F.cov and ncov = get t c F.ncov and read = is_read_unit t c in
  let base = if level = lrf then 4 else 0 and p = get t c F.shared and gain = ref 0.0 in
  (* A read unit's fill read stays in the MRF. *)
  for j = (if read then cov + 1 else cov) to cov + ncov - 1 do
    gain := !gain +. t.terms.(base + consumer_dp t t.ints.(j))
  done;
  t.est.(ix c level) <-
    (if read && (level = lrf || ncov < 2) then neg_infinity
     else if read then (* the fill write, at the first consumer's datapath *)
       !gain -. t.terms.(2 + consumer_dp t t.ints.(cov))
     else if get t c F.mrf_copy = 1 then !gain -. t.terms.(base + 2 + p)
     else !gain -. t.terms.(base + 2 + p) +. t.terms.(8 + p))

(* Pushes those reads of def [d] that are safe to serve from an upper
   level (in [strand], [reg] must-defined on every path) and, when
   [unique], reached by [d] alone, into the ascending run of distinct
   reads from [cov] on (a merged group's defs share their join reads);
   says whether it left one out, which forces an MRF copy. *)
let push_reads (ctx : Context.t) t d ~reg ~strand ~cov ~unique =
  let reaching = ctx.Context.reaching and left = ref false in
  for n = 0 to Analysis.Duchain.num_reads ctx.Context.duchain d - 1 do
    let o = Analysis.Duchain.read_operand ctx.Context.duchain d n in
    let instr_id = read_instr o and slot = read_slot o in
    if
      (unique
      && not
           (Analysis.Reaching.num_reaching reaching ~instr_id ~slot = 1
           && Analysis.Reaching.nth_reaching reaching ~instr_id ~slot 0 = d))
      || strand_of t instr_id <> strand
      || not (Strand.Must_defined.must_defined_before ctx.Context.must_defined ~instr_id reg)
    then left := true
    else begin
      let j = ref t.n_ints in
      while !j > cov && t.ints.(!j - 1) > o do decr j done;
      if !j = cov || t.ints.(!j - 1) <> o then begin
        push t o;
        Array.blit t.ints !j t.ints (!j + 1) (t.n_ints - 1 - !j);
        t.ints.(!j) <- o
      end
    end
  done;
  !left

(* Appends the write unit of the definitions [ints.(defs .. defs +
   ndefs - 1)], covering the reads pushed after them.  The LRF rules go
   in the order the explainer reports the first that fails. *)
let write_unit config t ~reg ~strand ~defs ~ndefs ~uncovered =
  let cov = defs + ndefs and first = ref max_int and width = ref 1 and shared = ref 0 in
  for j = defs to cov - 1 do
    first := Int.min !first t.ints.(j);
    width := Int.max !width (words t t.ints.(j));
    shared := Int.max !shared (shared_op t t.ints.(j))
  done;
  let shared_read = ref false and one_slot = ref true in
  for j = cov to t.n_ints - 1 do
    if consumer_dp t t.ints.(j) = 1 then shared_read := true;
    if read_slot t.ints.(j) <> read_slot t.ints.(cov) then one_slot := false
  done;
  let lrf =
    match config.Config.lrf with
    | Config.No_lrf -> -1
    | _ when !shared = 1 -> -2
    | _ when !width > 1 -> -3
    | _ when !shared_read -> -4
    | Config.Unified -> 0
    | Config.Split when cov = t.n_ints -> 0
    | Config.Split -> if !one_slot then read_slot t.ints.(cov) else -5
  in
  add t ~reg ~strand ~first:!first ~width:!width ~shared:!shared ~lrf
    ~mrf_copy:(if uncovered then 1 else 0) ~cov ~ncov:(t.n_ints - cov) ~defs ~ndefs

(* Appends the write units of one def-use group.

   A group whose definitions all sit in one strand becomes a single
   unit covering merged reads too (Fig. 10(c): all definitions target
   the same entry).  Otherwise — loop-carried or cross-strand groups,
   e.g. induction variables — each definition becomes its own unit
   covering only the reads it reaches uniquely; reads merged with other
   definitions stay in the MRF.  Long-latency definitions make none. *)
let build_write_units config (ctx : Context.t) t g =
  let k = ctx.Context.kernel and du = ctx.Context.duchain and defs = t.n_ints in
  let ndefs = Analysis.Duchain.group_size du g and d0 = Analysis.Duchain.group_member du g 0 in
  let reg = Option.get (Ir.Kernel.instr k d0).Ir.Instr.dst and strand = strand_of t d0 in
  let merged = ref true in
  for n = 0 to ndefs - 1 do
    let d = Analysis.Duchain.group_member du g n in
    push t d;
    if strand_of t d <> strand || is_ll t d then merged := false
  done;
  if !merged then begin
    let uncovered = ref false in
    for n = 0 to ndefs - 1 do
      let d = Analysis.Duchain.group_member du g n in
      if push_reads ctx t d ~reg ~strand ~cov:(defs + ndefs) ~unique:false then uncovered := true
    done;
    write_unit config t ~reg ~strand ~defs ~ndefs ~uncovered:!uncovered
  end
  else begin
    t.n_ints <- defs;
    for n = 0 to ndefs - 1 do
      let d = Analysis.Duchain.group_member du g n and defs = t.n_ints in
      if not (is_ll t d) then begin
        push t d;
        let strand = strand_of t d in
        let uncovered = push_reads ctx t d ~reg ~strand ~cov:(defs + 1) ~unique:true in
        write_unit config t ~reg ~strand ~defs ~ndefs:1 ~uncovered
      end
    done
  end

(* Sorts [q.(lo .. hi - 1)] by [before] (may [a] come first?), keeping
   the order of equals, merging through [tmp]. *)
let rec merge_sort before q tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    merge_sort before q tmp lo mid;
    merge_sort before q tmp mid hi;
    Array.blit q lo tmp lo (hi - lo);
    let i = ref lo and j = ref mid in
    for n = lo to hi - 1 do
      let left = !j >= hi || (!i < mid && before tmp.(!i) tmp.(!j)) in
      q.(n) <- (if left then tmp.(!i) else tmp.(!j));
      if left then incr i else incr j
    done
  end

(* Do all of [id]'s reaching definitions of [slot] from the [j]th on
   lie outside [strand]? *)
let rec outside (ctx : Context.t) t id slot strand j =
  let reaching = ctx.Context.reaching in
  j >= Analysis.Reaching.num_reaching reaching ~instr_id:id ~slot
  || strand_of t (Analysis.Reaching.nth_reaching reaching ~instr_id:id ~slot j) <> strand
     && outside ctx t id slot strand (j + 1)

(* Pushes [id]'s reads from [slot] on whose reaching definitions all
   lie outside its strand as [group * no + operand], numbering a
   (strand, register) group when it is first seen; returns the number
   of groups. *)
let rec scan ctx t no groups id strand slot = function
  | [] -> groups
  | r :: rest ->
    let out = outside ctx t id slot strand 0 in
    let fresh = out && t.cell_strand.(r) <> strand in
    if fresh then t.cell.(r) <- groups;
    if out then begin
      t.cell_strand.(r) <- strand;
      push t ((t.cell.(r) * no) + Analysis.Duchain.operand ~instr_id:id ~slot)
    end;
    scan ctx t no (if fresh then groups + 1 else groups) id strand (slot + 1) rest

(* Appends the read units (Sec. 4.4): per (strand, register), reads
   whose reaching definitions all lie outside the strand.  Strands are
   layout intervals, so one walk of the kernel numbers the groups in
   the order it first sees them.

   The units are ordered by interval.  Equal intervals keep the order
   the placement golden pins: that of folding into a list a [Hashtbl]
   keyed by [(strand, reg)], created at 64 buckets and doubling
   whenever it holds more than twice as many keys as buckets.  The fold
   runs from the last bucket down, each bucket oldest key first, and a
   key's bucket is [Hashtbl.hash (strand, reg)] masked by the final
   bucket count; so the units sort on (interval, bucket descending,
   group number), without the table's pointers. *)
let build_read_units (ctx : Context.t) t =
  let k = ctx.Context.kernel and first_id = t.n and filed = t.n_ints in
  let nr = k.Ir.Kernel.num_regs and no = Ir.Kernel.instr_count k * Ir.Instr.num_slots in
  t.cell <- grow t.cell nr 0;
  t.cell_strand <- grow t.cell_strand nr 0;
  Array.fill t.cell_strand 0 nr (-1);
  let groups = ref 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      groups := scan ctx t no !groups id (strand_of t id) 0 i.Ir.Instr.srcs)
    k.Ir.Kernel.instrs;
  (* Counted out by group into [tmp], each group's reads in layout
     order end at [start.(g)]. *)
  let groups = !groups in
  t.start <- grow t.start (groups + 1) 0;
  Array.fill t.start 0 (groups + 1) 0;
  for j = filed to t.n_ints - 1 do
    t.start.((t.ints.(j) / no) + 1) <- t.start.((t.ints.(j) / no) + 1) + 1
  done;
  for g = 1 to groups do t.start.(g) <- t.start.(g) + t.start.(g - 1) done;
  t.tmp <- grow t.tmp (t.n_ints - filed) 0;
  for j = filed to t.n_ints - 1 do
    let g = t.ints.(j) / no in
    t.tmp.(t.start.(g)) <- t.ints.(j) mod no;
    t.start.(g) <- t.start.(g) + 1
  done;
  t.n_ints <- filed;
  let rec size n = if groups > 2 * n then size (2 * n) else n in
  let buckets = size 64 in
  t.bucket <- grow t.bucket groups 0;
  for g = 0 to groups - 1 do
    let lo = if g = 0 then 0 else t.start.(g - 1) and hi = t.start.(g) in
    (* A single read cannot profit.  Later reads must be dominated by
       the fill read so the ORF copy exists on every path — and must
       execute strictly after it: the fill cannot serve another slot of
       its own instruction. *)
    let fill = t.tmp.(lo) and cov = t.n_ints in
    let fi = read_instr fill in
    if hi - lo >= 2 then push t fill;
    for j = lo + 1 to hi - 1 do
      let i = read_instr t.tmp.(j) in
      if i > fi && Analysis.Dominance.instr_dominates k ctx.Context.dominance fi i then
        push t t.tmp.(j)
    done;
    if t.n_ints - cov < 2 then t.n_ints <- cov
    else begin
      let strand = strand_of t fi in
      let reg = List.nth (Ir.Kernel.instr k fi).Ir.Instr.srcs (read_slot fill) in
      t.bucket.(t.n - first_id) <- Hashtbl.hash (strand, reg) land (buckets - 1);
      add t ~reg ~strand ~first:fi ~width:1 ~shared:0 ~lrf:(-6) ~mrf_copy:1 ~cov
        ~ncov:(t.n_ints - cov) ~defs:0 ~ndefs:0
    end
  done;
  (* Renumber the units in order: sort their ids, then copy their rows
     past the table and back. *)
  let units = t.n - first_id in
  t.queue <- grow t.queue units 0;
  t.tmp <- grow t.tmp units 0;
  for u = 0 to units - 1 do t.queue.(u) <- first_id + u done;
  let before a b =
    let first c = get t c F.first and last c = get t c F.last in
    first a < first b
    || first a = first b
       && (last a < last b
          || (last a = last b && t.bucket.(a - first_id) >= t.bucket.(b - first_id)))
  in
  merge_sort before t.queue t.tmp 0 units;
  t.rows <- grow t.rows ((t.n + units) * F.size) 0;
  Array.blit t.rows (first_id * F.size) t.rows (t.n * F.size) (units * F.size);
  for u = 0 to units - 1 do
    Array.blit t.rows ((t.queue.(u) + units) * F.size) t.rows ((first_id + u) * F.size) F.size
  done

(* Drop the last covered read (Sec. 4.3's iterative shortening), which
   pulls the span's end in: a write unit keeps one read and needs an
   MRF copy, a read unit keeps its fill and one more.  False when the
   candidate cannot be shortened further. *)
let shorten t c =
  let ncov = get t c F.ncov and read = is_read_unit t c in
  ncov > (if read then 2 else 1)
  && begin
    if not read then set t c F.mrf_copy 1;
    set t c F.ncov (ncov - 1);
    set t c F.last (span_end t (get t c F.first) (get t c F.cov) (ncov - 1));
    set t c F.shortened (get t c F.shortened + 1);
    true
  end

(* A candidate that does not fit is shortened and retried in place
   while its estimate stays positive; it never goes back in the
   queue. *)
let rec attempt config t occ c =
  let first = get t c F.first and last = get t c F.last and width = get t c F.width in
  match Occupancy.find_free occ ~width ~first ~last with
  | Some e ->
    Occupancy.reserve_range occ ~entry:e ~width ~first ~last;
    set t c F.level orf;
    set t c F.slot e
  | None ->
    if config.Config.partial_ranges && shorten t c then begin
      estimate t c orf;
      if est t c orf > 0.0 then attempt config t occ c
    end

(* Queues candidate [c] at [q] if its estimate at the phase's [level]
   is positive; returns the queue's length. *)
let enqueue t c q level =
  let savings = est t c level in
  if savings > 0.0 then begin
    t.prio.(c) <- Savings.priority ~savings ~first:(get t c F.first) ~last:(get t c F.last);
    t.queue.(q) <- c;
    q + 1
  end
  else q

(* Report one placed candidate, at the savings that placed it, to the
   metrics registry and the audit sink (Obs.Audit). *)
let audit_alloc t c =
  let level = get t c F.level in
  Obs.Metrics.observe m_unit_savings (est t c level);
  if Obs.Audit.is_enabled () then
    Obs.Audit.emit
      (Obs.Audit.Alloc
         { reg = Ir.Reg.to_string (get t c F.reg);
           kind = (if is_read_unit t c then Obs.Audit.Read_unit else Obs.Audit.Write_unit);
           strand = get t c F.strand; level = (if level = lrf then Obs.Audit.Lrf else Obs.Audit.Orf);
           slot = get t c F.slot; first = get t c F.first; last = get t c F.last;
           reads = get t c F.ncov; savings = est t c level; partial = get t c F.shortened > 0;
           mrf_copy = get t c F.mrf_copy = 1 })

(* The explainer's account of one candidate (Obs.Explain), read off its
   row.  A level is [Chosen] if it won and [Ineligible] if the LRF rules
   excluded it; otherwise its last estimate says why it lost:
   [Negative_savings] at or below zero, else [No_free_slot].  Each
   shortening dropped one read; estimates clamp to finite values. *)
let decision t (k : Ir.Kernel.t) c =
  let level l verdict =
    let s = est t c l in
    { Obs.Explain.level = (if l = lrf then "lrf" else "orf");
      savings = (if Float.is_finite s then s else 0.0); verdict }
  in
  let lost l = if est t c l <= 0.0 then Obs.Explain.Negative_savings else Obs.Explain.No_free_slot in
  let won = get t c F.level and slot = get t c F.slot and bank = get t c F.lrf in
  let lrf_level =
    level lrf
      (if bank < 0 then Obs.Explain.Ineligible reasons.(-1 - bank)
       else if won = lrf then Obs.Explain.Chosen
       else lost lrf)
  in
  let candidates, outcome =
    if won = lrf then ([ lrf_level ], Obs.Explain.To_lrf { bank = slot })
    else if won = orf then
      ( [ lrf_level; level orf Obs.Explain.Chosen ],
        Obs.Explain.To_orf { entry = slot; shortened = get t c F.shortened } )
    else ([ lrf_level; level orf (lost orf) ], Obs.Explain.To_mrf)
  in
  let range f n g = List.init (get t c n) (fun j -> g t.ints.(get t c f + j)) in
  { Obs.Explain.seq = c; kernel = k.Ir.Kernel.name; reg = Ir.Reg.to_string (get t c F.reg);
    kind = (if is_read_unit t c then "read_unit" else "write_unit");
    strand = get t c F.strand; width = get t c F.width; first = get t c F.first;
    last = get t c F.last; defs = range F.defs F.ndefs Fun.id;
    covered = range F.cov F.ncov (fun o -> (read_instr o, read_slot o));
    dropped_reads = get t c F.shortened; mrf_copy = get t c F.mrf_copy = 1; candidates; outcome }

(* Write one placed candidate into the placement: its definitions'
   destinations, and its covered reads (a read unit's first read stays
   in the MRF and fills the entry). *)
let write_placement t placement c =
  let slot = get t c F.slot and cov = get t c F.cov and in_lrf = get t c F.level = lrf in
  let to_lrf, to_orf = if in_lrf then (Some slot, None) else (None, Some slot) in
  let dest = { Placement.to_lrf; to_orf; to_mrf = get t c F.mrf_copy = 1 } in
  for j = get t c F.defs to get t c F.defs + get t c F.ndefs - 1 do
    Placement.set_dest placement ~instr:t.ints.(j) dest
  done;
  let read = is_read_unit t c in
  if read then
    Placement.add_fill placement ~instr:(read_instr t.ints.(cov)) ~pos:(read_slot t.ints.(cov))
      ~entry:slot;
  let src = if in_lrf then Placement.From_lrf slot else Placement.From_orf slot in
  for j = (if read then cov + 1 else cov) to cov + get t c F.ncov - 1 do
    Placement.set_src placement ~instr:(read_instr t.ints.(j)) ~pos:(read_slot t.ints.(j)) src
  done

(* Per-instruction static occupancy of one structure, for the counter
   tracks: entries reserved over [at, at+1). *)
let occupied_at occ ~at =
  let c = ref 0 in
  for e = 0 to Occupancy.entries occ - 1 do
    if not (Occupancy.available occ ~entry:e ~first:at ~last:(at + 1)) then incr c
  done;
  float_of_int !c

let run_inner config (ctx : Context.t) =
  let k = ctx.Context.kernel and du = ctx.Context.duchain and t = Domain.DLS.get key in
  t.n <- 0;
  t.n_ints <- 0;
  t.terms <- Savings.terms config;
  t.facts <- grow t.facts (Ir.Kernel.instr_count k) 0;
  Array.iter
    (fun (i : Ir.Instr.t) ->
      t.facts.(i.Ir.Instr.id) <-
        (Strand.Partition.strand_of_instr ctx.Context.partition i.Ir.Instr.id lsl 5)
        lor (Ir.Width.words i.Ir.Instr.width lsl 2)
        lor (if Ir.Instr.is_long_latency i then 2 else 0)
        lor if Ir.Op.is_shared_datapath i.Ir.Instr.op then 1 else 0)
    k.Ir.Kernel.instrs;
  (* Write units, one per def-use group, built at its first def in
     layout order; then read units. *)
  let ni = Ir.Kernel.instr_count k in
  for d = 0 to ni - 1 do
    let g = if Analysis.Duchain.is_def du d then Analysis.Duchain.group_of du d else -1 in
    if g >= 0 && Analysis.Duchain.group_member du g 0 = d then build_write_units config ctx t g
  done;
  let n_write = t.n in
  if config.Config.read_operands then build_read_units ctx t;
  let n = t.n in
  t.est <- grow t.est (2 * n) 0.0;
  t.prio <- grow t.prio n 0.0;
  (* The ORF queue takes the LRF queue's losers again. *)
  t.queue <- grow t.queue (2 * n) 0;
  t.tmp <- grow t.tmp (2 * n) 0;
  (* A phase visits the candidates with a positive estimate at its
     level by decreasing priority, id order on ties: one stable sort, as
     only the candidate being placed is ever shortened. *)
  let by_priority lo hi = merge_sort (fun a b -> t.prio.(a) >= t.prio.(b)) t.queue t.tmp lo hi in
  (* Phase 1: LRF, for the LRF-eligible write units.  The explainer also
     reports what the LRF would have saved on the others (NaN, reported
     as 0, where the energy model refuses the pairing outright). *)
  let ex = Obs.Explain.is_enabled () and lrf_end = ref 0 in
  for c = 0 to n - 1 do
    if get t c F.lrf >= 0 || ex then estimate t c lrf;
    if get t c F.lrf >= 0 then lrf_end := enqueue t c !lrf_end lrf
  done;
  let lrf_end = !lrf_end in
  by_priority 0 lrf_end;
  (* One occupancy map per structure serves every strand: strands are
     disjoint layout intervals. *)
  let lrf_occ = Occupancy.create ~entries:(Config.lrf_banks config) in
  for q = 0 to lrf_end - 1 do
    let c = t.queue.(q) in
    let first = get t c F.first and last = get t c F.last in
    let bank =
      (* A split-mode candidate with no covered reads takes any bank. *)
      if config.Config.lrf = Config.Split && get t c F.ncov = 0 then
        Option.value ~default:(-1) (Occupancy.find_free lrf_occ ~width:1 ~first ~last)
      else get t c F.lrf
    in
    if bank >= 0 && Occupancy.available lrf_occ ~entry:bank ~first ~last then begin
      Occupancy.reserve lrf_occ ~entry:bank ~first ~last;
      set t c F.level lrf;
      set t c F.slot bank
    end
  done;
  (* Phase 2: ORF for everything not in the LRF.  Under [mirror_mrf]
     (variable ORF, Sec. 7) every ORF value keeps an MRF copy for a warp
     granted fewer entries; LRF banks are per-warp, never pooled. *)
  let orf_end = ref lrf_end in
  for c = 0 to n - 1 do
    if get t c F.level = mrf then begin
      if config.Config.mirror_mrf && c < n_write then set t c F.mrf_copy 1;
      estimate t c orf;
      orf_end := enqueue t c !orf_end orf
    end
  done;
  let orf_end = !orf_end and orf_occ = Occupancy.create ~entries:config.Config.orf_entries in
  by_priority lrf_end orf_end;
  for q = lrf_end to orf_end - 1 do
    attempt config t orf_occ t.queue.(q)
  done;
  (* Everything reported is read off the rows.  Each queue filtered to
     its winners is its phase's placement order. *)
  let won q = get t t.queue.(q) F.level = if q < lrf_end then lrf else orf in
  let lrf_allocated = ref 0 and orf_allocated = ref 0 and partial_allocated = ref 0 in
  for q = 0 to orf_end - 1 do
    if won q then begin
      audit_alloc t t.queue.(q);
      if q < lrf_end then incr lrf_allocated else incr orf_allocated;
      if q >= lrf_end && get t t.queue.(q) F.shortened > 0 then incr partial_allocated
    end
  done;
  let placement = Placement.baseline k in
  for q = lrf_end - 1 downto 0 do
    if won q then write_placement t placement t.queue.(q)
  done;
  for q = orf_end - 1 downto lrf_end do
    if won q then write_placement t placement t.queue.(q)
  done;
  if ex then
    for c = 0 to n - 1 do
      Obs.Explain.emit (decision t k c)
    done;
  (* Static occupancy as counter tracks (time = instruction id). *)
  if Obs.Counters.is_enabled () then
    for i = 0 to ni - 1 do
      Obs.Counters.sample "alloc.orf_occupancy" ~at:(float_of_int i) (occupied_at orf_occ ~at:i);
      Obs.Counters.sample "alloc.lrf_occupancy" ~at:(float_of_int i) (occupied_at lrf_occ ~at:i)
    done;
  let s =
    { write_units = n_write; read_units = n - n_write; lrf_allocated = !lrf_allocated;
      orf_allocated = !orf_allocated; partial_allocated = !partial_allocated }
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:s.write_units m_write_units;
  Obs.Metrics.incr ~by:s.read_units m_read_units;
  Obs.Metrics.incr ~by:s.lrf_allocated m_lrf_allocated;
  Obs.Metrics.incr ~by:s.orf_allocated m_orf_allocated;
  Obs.Metrics.incr ~by:s.partial_allocated m_partial_allocated;
  (placement, s)

let run config ctx = Obs.Span.with_span "allocate" (fun () -> run_inner config ctx)

let place config ctx = fst (run config ctx)
