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

type kind =
  | Write_unit of { defs : int list }
  | Read_unit

(* Where the phases left a candidate: its LRF bank or ORF entry. *)
type outcome =
  | Mrf
  | Lrf of int
  | Orf of int

(* The savings a candidate last estimated at each level.  An all-float
   record is stored flat, so writing an estimate allocates nothing; as
   float fields of [cand], every estimate would be a fresh box, which
   the write barrier promotes when the candidate is already old. *)
type savings = {
  mutable at_lrf : float;
  mutable at_orf : float;
}

(* One allocation candidate: a value (or MRF-resident read range) and
   the reads an upper-level copy would serve.  A read is its operand
   index ({!Analysis.Duchain.operand}), so the covered list holds
   immediates.  The candidate is also the allocator's only record of
   its decision: the LRF verdict settled at construction, then what
   the phases write — the outcome, the shortening count and each
   level's last savings estimate. *)
type cand = {
  id : int;  (* dense per-run index, construction order *)
  kind : kind;
  reg : Ir.Reg.t;
  strand : int;
  first : int;  (* half-open occupancy span [first, last) *)
  mutable last : int;
  mutable covered : int list;  (* operand indices, ascending; head of a
                                  Read_unit is the MRF-served fill *)
  mutable mrf_write_required : bool;  (* write units only *)
  width : int;
  producer_dp : Energy.Model.datapath;
  lrf : (int, string) result;  (* eligible LRF bank, or why there is none *)
  savings : savings;
  mutable shortened : int;
  mutable outcome : outcome;
}

let read_instr o = o / Ir.Instr.num_slots
let read_slot o = o mod Ir.Instr.num_slots

let datapath_of_op op =
  if Ir.Op.is_shared_datapath op then Energy.Model.Shared else Energy.Model.Private

let consumer_dp k o = datapath_of_op (Ir.Kernel.instr k (read_instr o)).Ir.Instr.op

(* End of the occupancy span that starts at [first]: the write occupies
   at least its own slot, and protection extends up to (excluding) the
   last covered read. *)
let span_end first reads =
  max (List.fold_left (fun acc o -> max acc (read_instr o)) first reads) (first + 1)

(* A candidate before the phases: unpriced, unshortened, in the MRF. *)
let candidate ~id ~kind ~reg ~strand ~first ~covered ~mrf_write_required ~width ~producer_dp
    ~lrf =
  {
    id;
    kind;
    reg;
    strand;
    first;
    last = span_end first covered;
    covered;
    mrf_write_required;
    width;
    producer_dp;
    lrf;
    savings = { at_lrf = neg_infinity; at_orf = neg_infinity };
    shortened = 0;
    outcome = Mrf;
  }

let savings_of config k target cand =
  match cand.kind with
  | Write_unit _ ->
    let reads = List.map (consumer_dp k) cand.covered in
    Savings.write_unit config ~target ~producer_dp:cand.producer_dp ~reads
      ~mrf_write_required:cand.mrf_write_required
  | Read_unit ->
    (match target with
     | `Lrf -> neg_infinity  (* read units are ORF-only *)
     | `Orf -> Savings.read_unit config ~reads:(List.map (consumer_dp k) cand.covered))

let placed c = match c.outcome with Mrf -> false | Lrf _ | Orf _ -> true

(* A phase visits the candidates whose estimate at its level is
   positive, in decreasing priority, construction (id) order on ties.
   Each priority is computed once and one stable sort orders the phase:
   a waiting candidate's priority never changes, since only the
   candidate being placed is ever shortened. *)
let by_priority level cands =
  List.filter_map
    (fun c ->
      let s = match level with `Lrf -> c.savings.at_lrf | `Orf -> c.savings.at_orf in
      if s > 0.0 then Some (Savings.priority ~savings:s ~first:c.first ~last:c.last, c) else None)
    cands
  |> List.stable_sort (fun (p, _) (q, _) -> Float.compare q p)
  |> List.map snd

(* Drop the last covered read (Sec. 4.3's iterative shortening), which
   pulls the span's end in.  Returns false when the candidate cannot
   be shortened further. *)
let shorten c =
  let drop rev_rest =
    c.covered <- List.rev rev_rest;
    c.last <- span_end c.first c.covered;
    c.shortened <- c.shortened + 1;
    true
  in
  match c.kind, List.rev c.covered with
  | Write_unit _, _ :: (_ :: _ as rev_rest) ->
    c.mrf_write_required <- true;
    drop rev_rest
  | Read_unit, _ :: (_ :: _ :: _ as rev_rest) -> drop rev_rest
  | (Write_unit _ | Read_unit), _ -> false

(* Assemble one write unit given its defs and the reads it may cover. *)
let make_write_unit config (ctx : Context.t) ~id ~defs ~reg ~strand ~reads ~extra_uncovered =
  let k = ctx.Context.kernel in
  let partition = ctx.Context.partition in
  let safe o =
    Strand.Partition.strand_of_instr partition (read_instr o) = strand
    && Strand.Must_defined.must_defined_before ctx.Context.must_defined ~instr_id:(read_instr o)
         reg
  in
  let covered, uncovered = List.partition safe reads in
  let width =
    List.fold_left (fun acc d -> max acc (Ir.Width.words (Ir.Kernel.instr k d).Ir.Instr.width)) 1
      defs
  in
  let producer_dp =
    if List.exists (fun d -> Ir.Op.is_shared_datapath (Ir.Kernel.instr k d).Ir.Instr.op) defs
    then Energy.Model.Shared
    else Energy.Model.Private
  in
  (* The LRF rules, in the order the explainer reports the first that
     fails. *)
  let lrf =
    match config.Config.lrf with
    | Config.No_lrf -> Error "no LRF in this configuration"
    | _ when producer_dp <> Energy.Model.Private -> Error "shared-datapath producer"
    | _ when width > 1 -> Error "wide (multi-word) value"
    | _ when List.exists (fun o -> consumer_dp k o = Energy.Model.Shared) covered ->
      Error "shared-datapath consumer"
    | Config.Unified -> Ok 0
    | Config.Split ->
      (match covered with
       | [] -> Ok 0
       | o0 :: rest ->
         let slot = read_slot o0 in
         if List.for_all (fun o -> read_slot o = slot) rest then Ok slot
         else Error "covered reads span operand slots")
  in
  candidate ~id ~kind:(Write_unit { defs }) ~reg ~strand
    ~first:(List.fold_left min max_int defs)
    ~covered
    ~mrf_write_required:(extra_uncovered || uncovered <> [])
    ~width ~producer_dp ~lrf

(* Build the write units for one def-use group, numbering them from
   [next_id].

   A group whose definitions all sit in one strand becomes a single
   unit covering merged reads too (Fig. 10(c): all definitions target
   the same entry).  Otherwise — loop-carried or cross-strand groups,
   e.g. induction variables — each definition becomes its own unit
   covering only the reads it reaches uniquely; reads merged with other
   definitions stay in the MRF. *)
let build_write_units config (ctx : Context.t) next_id g =
  let k = ctx.Context.kernel in
  let partition = ctx.Context.partition in
  let du = ctx.Context.duchain in
  let reaching = ctx.Context.reaching in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let reads_of d =
    List.init (Analysis.Duchain.num_reads du d) (Analysis.Duchain.read_operand du d)
  in
  let defs = List.init (Analysis.Duchain.group_size du g) (Analysis.Duchain.group_member du g) in
  let first = List.hd defs in
  let reg = Option.get (Ir.Kernel.instr k first).Ir.Instr.dst in
  let is_ll d = Ir.Instr.is_long_latency (Ir.Kernel.instr k d) in
  let strand = Strand.Partition.strand_of_instr partition first in
  let same_strand_defs =
    List.for_all (fun d -> Strand.Partition.strand_of_instr partition d = strand) defs
  in
  if same_strand_defs && not (List.exists is_ll defs) then begin
    (* One instance's reads are already ascending and distinct; a
       merged group's share their join reads. *)
    let reads =
      match defs with
      | [ d ] -> reads_of d
      | _ -> List.sort_uniq Int.compare (List.concat_map reads_of defs)
    in
    [ make_write_unit config ctx ~id:(fresh ()) ~defs ~reg ~strand ~reads ~extra_uncovered:false ]
  end
  else
    (* Per-definition fallback: cover only uniquely reached reads. *)
    List.filter_map
      (fun d ->
        if is_ll d then None
        else begin
          let unique, shared_reads =
            List.partition
              (fun o ->
                let instr_id = read_instr o and slot = read_slot o in
                Analysis.Reaching.num_reaching reaching ~instr_id ~slot = 1
                && Analysis.Reaching.nth_reaching reaching ~instr_id ~slot 0 = d)
              (reads_of d)
          in
          Some
            (make_write_unit config ctx ~id:(fresh ()) ~defs:[ d ] ~reg
               ~strand:(Strand.Partition.strand_of_instr partition d)
               ~reads:unique ~extra_uncovered:(shared_reads <> []))
        end)
      defs

(* Build read units (Sec. 4.4), numbered from [first_id]: per (strand,
   register), reads whose reaching definitions all lie outside the
   strand.

   Strands are layout intervals, so walking the kernel visits each
   (strand, register) group in one stretch: [cell] holds the current
   strand's group of each register, and the walk numbers the groups in
   the order it first sees them and files each read under its group
   ([read_group], by operand index).

   The units are ordered by interval.  Equal intervals keep a fixed
   order that placements depend on (the placement golden pins it): the
   order of folding a [Hashtbl] keyed by [(strand, reg)], created at 64
   buckets and doubling whenever it holds more than twice as many keys
   as buckets, into a list.  The fold visits buckets in index order,
   each newest key first, and conses, so the list runs from the last
   bucket down, each bucket oldest key first; a key's bucket is
   [Hashtbl.hash (strand, reg)] masked by the final bucket count.
   Sorting on (interval, bucket descending, group number) gives that
   order without building the table, whose buckets and keys would be
   pointers stored into a major-heap array. *)
let build_read_units (ctx : Context.t) ~first_id =
  let k = ctx.Context.kernel in
  let partition = ctx.Context.partition in
  let reaching = ctx.Context.reaching in
  let nr = k.Ir.Kernel.num_regs in
  let read_group = Array.make (Ir.Kernel.instr_count k * Ir.Instr.num_slots) (-1) in
  let cell = Array.make nr (-1) and cell_strand = Array.make nr (-1) in
  let groups = ref 0 in
  let rec outside id slot strand j =
    j >= Analysis.Reaching.num_reaching reaching ~instr_id:id ~slot
    || Strand.Partition.strand_of_instr partition
         (Analysis.Reaching.nth_reaching reaching ~instr_id:id ~slot j)
       <> strand
       && outside id slot strand (j + 1)
  in
  let rec scan id strand slot = function
    | [] -> ()
    | r :: rest ->
      if outside id slot strand 0 then begin
        if cell_strand.(r) <> strand then begin
          cell_strand.(r) <- strand;
          cell.(r) <- !groups;
          incr groups
        end;
        read_group.(Analysis.Duchain.operand ~instr_id:id ~slot) <- cell.(r)
      end;
      scan id strand (slot + 1) rest
  in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      scan id (Strand.Partition.strand_of_instr partition id) 0 i.Ir.Instr.srcs)
    k.Ir.Kernel.instrs;
  let groups = !groups in
  (* Each group's reads in layout order: [reads.(start.(g) ..
     start.(g + 1) - 1)]. *)
  let start = Array.make (groups + 1) 0 in
  Array.iter (fun g -> if g >= 0 then start.(g + 1) <- start.(g + 1) + 1) read_group;
  for g = 1 to groups do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let reads = Array.make start.(groups) 0 in
  let next = Array.sub start 0 groups in
  Array.iteri
    (fun o g ->
      if g >= 0 then begin
        reads.(next.(g)) <- o;
        next.(g) <- next.(g) + 1
      end)
    read_group;
  let buckets =
    let rec size n = if groups > 2 * n then size (2 * n) else n in
    size 64
  in
  let units = ref [] in
  for g = groups - 1 downto 0 do
    (* A single read cannot profit. *)
    if start.(g + 1) - start.(g) >= 2 then begin
      (* Later reads must be dominated by the fill read so the ORF copy
         exists on every path — and must execute strictly after it: the
         fill cannot serve another slot of its own instruction. *)
      let first = reads.(start.(g)) in
      let fi = read_instr first in
      let dominated = ref [] in
      for j = start.(g + 1) - 1 downto start.(g) + 1 do
        let o = reads.(j) in
        if
          read_instr o > fi
          && Analysis.Dominance.instr_dominates k ctx.Context.dominance fi (read_instr o)
        then dominated := o :: !dominated
      done;
      if !dominated <> [] then begin
        let strand = Strand.Partition.strand_of_instr partition fi in
        let reg = List.nth (Ir.Kernel.instr k fi).Ir.Instr.srcs (read_slot first) in
        let covered = first :: !dominated in
        let bucket = Hashtbl.hash (strand, reg) land (buckets - 1) in
        units := (fi, span_end fi covered, bucket, strand, reg, covered) :: !units
      end
    end
  done;
  List.stable_sort
    (fun (f1, l1, b1, _, _, _) (f2, l2, b2, _, _, _) ->
      let c = Int.compare f1 f2 in
      if c <> 0 then c
      else
        let c = Int.compare l1 l2 in
        if c <> 0 then c else Int.compare b2 b1)
    !units
  |> List.mapi (fun n (first, _, _, strand, reg, covered) ->
         candidate ~id:(first_id + n) ~kind:Read_unit ~reg ~strand ~first ~covered
           ~mrf_write_required:true ~width:1 ~producer_dp:Energy.Model.Private
           ~lrf:(Error "read units are ORF-only"))

(* Report one placed candidate, at the savings that placed it, to the
   metrics registry and the audit sink (Obs.Audit). *)
let audit_alloc c =
  let level, slot, savings =
    match c.outcome with
    | Lrf b -> (Obs.Audit.Lrf, b, c.savings.at_lrf)
    | Orf e -> (Obs.Audit.Orf, e, c.savings.at_orf)
    | Mrf -> invalid_arg "Allocator: auditing an unplaced candidate"
  in
  Obs.Metrics.observe m_unit_savings savings;
  if Obs.Audit.is_enabled () then
    Obs.Audit.emit
      (Obs.Audit.Alloc
         {
           reg = Ir.Reg.to_string c.reg;
           kind =
             (match c.kind with
              | Write_unit _ -> Obs.Audit.Write_unit
              | Read_unit -> Obs.Audit.Read_unit);
           strand = c.strand;
           level;
           slot;
           first = c.first;
           last = c.last;
           reads = List.length c.covered;
           savings;
           partial = c.shortened > 0;
           mrf_copy = c.mrf_write_required;
         })

(* Savings estimates can be [neg_infinity] for structurally impossible
   pairings; clamp for the event stream so the JSONL stays finite. *)
let finite s = if Float.is_finite s then s else 0.0

(* The explainer's account of one candidate (Obs.Explain), read off its
   record.  A level is [Chosen] if it won and [Ineligible] if the LRF
   rules excluded it; otherwise its last estimate says why it lost:
   [Negative_savings] at or below zero, else [No_free_slot].  Each
   shortening dropped one read. *)
let decision k c =
  let level name savings verdict =
    { Obs.Explain.level = name; savings = finite savings; verdict }
  in
  let lost savings =
    if savings <= 0.0 then Obs.Explain.Negative_savings else Obs.Explain.No_free_slot
  in
  let lrf =
    level "lrf" c.savings.at_lrf
      (match c.lrf, c.outcome with
       | Error why, _ -> Obs.Explain.Ineligible why
       | Ok _, Lrf _ -> Obs.Explain.Chosen
       | Ok _, (Orf _ | Mrf) -> lost c.savings.at_lrf)
  in
  let candidates, outcome =
    match c.outcome with
    | Lrf bank -> ([ lrf ], Obs.Explain.To_lrf { bank })
    | Orf entry ->
      ( [ lrf; level "orf" c.savings.at_orf Obs.Explain.Chosen ],
        Obs.Explain.To_orf { entry; shortened = c.shortened } )
    | Mrf -> ([ lrf; level "orf" c.savings.at_orf (lost c.savings.at_orf) ], Obs.Explain.To_mrf)
  in
  {
    Obs.Explain.seq = c.id;
    kernel = k.Ir.Kernel.name;
    reg = Ir.Reg.to_string c.reg;
    kind = (match c.kind with Write_unit _ -> "write_unit" | Read_unit -> "read_unit");
    strand = c.strand;
    width = c.width;
    first = c.first;
    last = c.last;
    defs = (match c.kind with Write_unit { defs } -> defs | Read_unit -> []);
    covered = List.map (fun o -> (read_instr o, read_slot o)) c.covered;
    dropped_reads = c.shortened;
    mrf_copy = c.mrf_write_required;
    candidates;
    outcome;
  }

(* Write one placed candidate into the placement: its definitions'
   destinations, and its covered reads (a read unit's first read stays
   in the MRF and fills the entry). *)
let write_placement placement c =
  let set_srcs level =
    List.iter (fun o -> Placement.set_src placement ~instr:(read_instr o) ~pos:(read_slot o) level)
  in
  let set_dests to_lrf to_orf =
    match c.kind with
    | Write_unit { defs } ->
      List.iter
        (fun d ->
          Placement.set_dest placement ~instr:d
            { Placement.to_lrf; to_orf; to_mrf = c.mrf_write_required })
        defs
    | Read_unit -> ()
  in
  match c.outcome, c.kind, c.covered with
  | Lrf bank, _, covered ->
    set_dests (Some bank) None;
    set_srcs (Placement.From_lrf bank) covered
  | Orf entry, Write_unit _, covered ->
    set_dests None (Some entry);
    set_srcs (Placement.From_orf entry) covered
  | Orf entry, Read_unit, fill :: rest ->
    Placement.add_fill placement ~instr:(read_instr fill) ~pos:(read_slot fill) ~entry;
    set_srcs (Placement.From_orf entry) rest
  | Orf _, Read_unit, [] -> invalid_arg "Allocator: empty read unit"
  | Mrf, _, _ -> ()

(* Per-instruction static occupancy of one structure, for the counter
   tracks: entries reserved over [at, at+1). *)
let occupied_at occ ~at =
  let n = Occupancy.entries occ in
  let c = ref 0 in
  for e = 0 to n - 1 do
    if not (Occupancy.available occ ~entry:e ~first:at ~last:(at + 1)) then incr c
  done;
  !c

let run_inner config (ctx : Context.t) =
  let k = ctx.Context.kernel in
  let duchain = ctx.Context.duchain in
  (* Write units: one per def-use group, visiting each group once, at
     its first def in layout order (group ids are instruction ids).
     Ids are dense: write units first, then read units, in construction
     order. *)
  let ni = Ir.Kernel.instr_count k in
  let seen_groups = Array.make ni false in
  let next_id = ref 0 in
  let rev_write_units = ref [] in
  for d = 0 to ni - 1 do
    if Analysis.Duchain.is_def duchain d then begin
      let g = Analysis.Duchain.group_of duchain d in
      if not seen_groups.(g) then begin
        seen_groups.(g) <- true;
        rev_write_units := List.rev_append (build_write_units config ctx next_id g) !rev_write_units
      end
    end
  done;
  let write_units = List.rev !rev_write_units in
  let read_units =
    if config.Config.read_operands then build_read_units ctx ~first_id:!next_id else []
  in
  let all_units = write_units @ read_units in
  (* Each LRF-eligible candidate's LRF savings, estimated once.  The
     explainer also reports what the LRF would have saved on the
     others, priced at their initial shape (the energy model may refuse
     such a pairing outright). *)
  let ex = Obs.Explain.is_enabled () in
  List.iter
    (fun c ->
      match c.lrf with
      | Ok _ -> c.savings.at_lrf <- savings_of config k `Lrf c
      | Error _ when ex ->
        c.savings.at_lrf <- (try savings_of config k `Lrf c with Invalid_argument _ -> 0.0)
      | Error _ -> ())
    all_units;
  (* One occupancy map per structure serves every strand: a unit's
     interval lies within its strand, and strands are disjoint layout
     intervals. *)
  let orf_occ = Occupancy.create ~entries:config.Config.orf_entries in
  let lrf_occ = Occupancy.create ~entries:(Config.lrf_banks config) in
  (* Phase 1: LRF. *)
  let lrf_queue = by_priority `Lrf (List.filter (fun c -> Result.is_ok c.lrf) write_units) in
  List.iter
    (fun c ->
      let first = c.first and last = c.last in
      let bank =
        match c.lrf with
        | Ok _ when config.Config.lrf = Config.Split && c.covered = [] ->
          (* A split-mode candidate with no covered reads may use any
             free bank. *)
          Occupancy.find_free lrf_occ ~width:1 ~first ~last
        | Ok b when Occupancy.available lrf_occ ~entry:b ~first ~last -> Some b
        | Ok _ | Error _ -> None
      in
      Option.iter
        (fun b ->
          Occupancy.reserve lrf_occ ~entry:b ~first ~last;
          c.outcome <- Lrf b)
        bank)
    lrf_queue;
  (* A phase places a candidate when its queue reaches it, so each queue
     filtered to its winners is that phase's placement order. *)
  let lrf_placed = List.filter placed lrf_queue in
  (* Phase 2: ORF for everything not already in the LRF. *)
  let orf_candidates = List.filter (fun c -> not (placed c)) write_units @ read_units in
  (* Variable-ORF support (Sec. 7): every ORF-resident value keeps an
     MRF copy so a warp granted fewer entries can fall back to it.
     LRF values are exempt — LRF banks are per-warp, never pooled. *)
  if config.Config.mirror_mrf then
    List.iter
      (fun c -> match c.kind with Write_unit _ -> c.mrf_write_required <- true | Read_unit -> ())
      orf_candidates;
  List.iter (fun c -> c.savings.at_orf <- savings_of config k `Orf c) orf_candidates;
  (* A candidate that does not fit is shortened and retried in place
     while its estimate stays positive; it never goes back in the
     queue. *)
  let rec attempt c =
    match Occupancy.find_free orf_occ ~width:c.width ~first:c.first ~last:c.last with
    | Some e ->
      Occupancy.reserve_range orf_occ ~entry:e ~width:c.width ~first:c.first ~last:c.last;
      c.outcome <- Orf e
    | None ->
      if config.Config.partial_ranges && shorten c then begin
        c.savings.at_orf <- savings_of config k `Orf c;
        if c.savings.at_orf > 0.0 then attempt c
      end
  in
  let orf_queue = by_priority `Orf orf_candidates in
  List.iter attempt orf_queue;
  let orf_placed = List.filter placed orf_queue in
  (* Everything reported is read off the candidates. *)
  List.iter audit_alloc lrf_placed;
  List.iter audit_alloc orf_placed;
  let placement = Placement.baseline k in
  List.iter (write_placement placement) (List.rev lrf_placed);
  List.iter (write_placement placement) (List.rev orf_placed);
  if ex then List.iter (fun c -> Obs.Explain.emit (decision k c)) all_units;
  (* Static ORF/LRF occupancy over the instruction stream, as counter
     tracks (simulated time = instruction id). *)
  if Obs.Counters.is_enabled () then begin
    for i = 0 to ni - 1 do
      Obs.Counters.sample "alloc.orf_occupancy" ~at:(float_of_int i)
        (float_of_int (occupied_at orf_occ ~at:i));
      Obs.Counters.sample "alloc.lrf_occupancy" ~at:(float_of_int i)
        (float_of_int (occupied_at lrf_occ ~at:i))
    done
  end;
  let s =
    {
      write_units = !next_id;
      read_units = List.length read_units;
      lrf_allocated = List.length lrf_placed;
      orf_allocated = List.length orf_placed;
      partial_allocated = List.length (List.filter (fun c -> c.shortened > 0) orf_placed);
    }
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
