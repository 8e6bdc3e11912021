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

(* One allocation candidate: a value (or MRF-resident read range) and
   the reads an upper-level copy would serve.  A read is its operand
   index ({!Analysis.Duchain.operand}), so the covered list holds
   immediates. *)
type cand = {
  id : int;  (* dense per-run index; keys the explainer's side table *)
  kind : kind;
  reg : Ir.Reg.t;
  strand : int;
  mutable covered : int list;  (* operand indices, ascending; head of a
                                  Read_unit is the MRF-served fill *)
  mutable mrf_write_required : bool;  (* write units only *)
  width : int;
  producer_dp : Energy.Model.datapath;
  lrf_bank : int option;  (* eligible LRF bank, if any *)
}

let read_instr o = o / Ir.Instr.num_slots
let read_slot o = o mod Ir.Instr.num_slots

let datapath_of_op op =
  if Ir.Op.is_shared_datapath op then Energy.Model.Shared else Energy.Model.Private

let consumer_dp k o = datapath_of_op (Ir.Kernel.instr k (read_instr o)).Ir.Instr.op

(* Half-open occupancy span: the write occupies at least its own slot,
   and protection extends up to (excluding) the last covered read. *)
let interval_of cand =
  match cand.kind, cand.covered with
  | Write_unit { defs }, [] ->
    let d = List.fold_left min max_int defs in
    (d, d + 1)
  | Write_unit { defs }, reads ->
    let d = List.fold_left min max_int defs in
    let last = List.fold_left (fun acc o -> max acc (read_instr o)) d reads in
    (d, max last (d + 1))
  | Read_unit, [] -> invalid_arg "Allocator: empty read unit"
  | Read_unit, (o0 :: _ as reads) ->
    let first = read_instr o0 in
    let last = List.fold_left (fun acc o -> max acc (read_instr o)) first reads in
    (first, max last (first + 1))

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

(* A phase visits its candidates in decreasing priority, construction
   (id) order on ties.  Each priority is computed once and one stable
   sort orders the phase: a waiting candidate's priority never changes,
   since only the candidate being placed is ever shortened. *)
let by_priority savings cands =
  List.map
    (fun c ->
      let first, last = interval_of c in
      (Savings.priority ~savings:savings.(c.id) ~first ~last, c))
    cands
  |> List.stable_sort (fun (p, _) (q, _) -> Float.compare q p)
  |> List.map snd

(* Drop the last covered read (Sec. 4.3's iterative shortening).
   Returns false when the candidate cannot be shortened further. *)
let shorten cand =
  match cand.kind, List.rev cand.covered with
  | Write_unit _, (_ :: (_ :: _ as rev_rest)) ->
    cand.covered <- List.rev rev_rest;
    cand.mrf_write_required <- true;
    true
  | Write_unit _, _ -> false
  | Read_unit, (_ :: rest) when List.length rest >= 2 ->
    cand.covered <- List.rev rest;
    true
  | Read_unit, _ -> false

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
  let lrf_bank =
    if producer_dp <> Energy.Model.Private || width > 1 then None
    else if List.exists (fun o -> consumer_dp k o = Energy.Model.Shared) covered then None
    else begin
      match config.Config.lrf with
      | Config.No_lrf -> None
      | Config.Unified -> Some 0
      | Config.Split ->
        (match covered with
         | [] -> Some 0
         | o0 :: rest ->
           let slot = read_slot o0 in
           if List.for_all (fun o -> read_slot o = slot) rest then Some slot else None)
    end
  in
  {
    id;
    kind = Write_unit { defs };
    reg;
    strand;
    covered;
    mrf_write_required = extra_uncovered || uncovered <> [];
    width;
    producer_dp;
    lrf_bank;
  }

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
        let last = List.fold_left (fun acc o -> max acc (read_instr o)) fi covered in
        let bucket = Hashtbl.hash (strand, reg) land (buckets - 1) in
        units := (fi, max last (fi + 1), bucket, strand, reg, covered) :: !units
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
  |> List.mapi (fun n (_, _, _, strand, reg, covered) ->
         {
           id = first_id + n;
           kind = Read_unit;
           reg;
           strand;
           covered;
           mrf_write_required = true;
           width = 1;
           producer_dp = Energy.Model.Private;
           lrf_bank = None;
         })

(* Report one allocation decision to the metrics registry and the
   audit sink (Obs.Audit). *)
let audit_alloc target c ~savings ~slot ~partial =
  Obs.Metrics.observe m_unit_savings savings;
  if Obs.Audit.is_enabled () then begin
    let first, last = interval_of c in
    Obs.Audit.emit
      (Obs.Audit.Alloc
         {
           reg = Ir.Reg.to_string c.reg;
           kind =
             (match c.kind with
              | Write_unit _ -> Obs.Audit.Write_unit
              | Read_unit -> Obs.Audit.Read_unit);
           strand = c.strand;
           level = (match target with `Lrf -> Obs.Audit.Lrf | `Orf -> Obs.Audit.Orf);
           slot;
           first;
           last;
           reads = List.length c.covered;
           savings;
           partial;
           mrf_copy = c.mrf_write_required;
         })
  end

(* ------------------------------------------------------------------ *)
(* Explainer side table.  When Obs.Explain is enabled, one [trail] per
   candidate accumulates what the two phases concluded about it;
   everything is emitted at the end of the run in candidate-id order,
   so the event stream is deterministic regardless of the priority
   order in which the queues drained.  When disabled, none of this is
   allocated and the per-decision cost is zero. *)

type trail = {
  mutable t_lrf : Obs.Explain.candidate option;
  mutable t_orf : Obs.Explain.candidate option;
  mutable t_shortened : int;
  mutable t_outcome : Obs.Explain.outcome;
  t_initial_reads : int;
}

(* Savings estimates can be [neg_infinity] — or raise — for
   structurally impossible pairings (the energy model refuses an LRF
   wired to the shared datapath); clamp for the event stream so the
   JSONL stays finite. *)
let finite s = if Float.is_finite s then s else 0.0

let safe_savings config k lvl c =
  match savings_of config k lvl c with
  | s -> finite s
  | exception Invalid_argument _ -> 0.0

(* Re-derive why [make_write_unit] withheld an LRF bank (it collapses
   the reasons into [lrf_bank = None]); explain-path only, so the extra
   walk over covered reads is fine. *)
let lrf_ineligibility config k c =
  match c.kind with
  | Read_unit -> "read units are ORF-only"
  | Write_unit _ ->
    if config.Config.lrf = Config.No_lrf then "no LRF in this configuration"
    else if c.producer_dp <> Energy.Model.Private then "shared-datapath producer"
    else if c.width > 1 then "wide (multi-word) value"
    else if List.exists (fun r -> consumer_dp k r = Energy.Model.Shared) c.covered then
      "shared-datapath consumer"
    else if
      config.Config.lrf = Config.Split
      && (match c.covered with
         | [] -> false
         | o0 :: rest -> not (List.for_all (fun o -> read_slot o = read_slot o0) rest))
    then "covered reads span operand slots"
    else "not LRF-eligible"

let emit_decisions k trails units =
  List.iter
    (fun c ->
      let t = trails.(c.id) in
      let first, last = interval_of c in
      Obs.Explain.emit
        {
          Obs.Explain.seq = c.id;
          kernel = k.Ir.Kernel.name;
          reg = Ir.Reg.to_string c.reg;
          kind = (match c.kind with Write_unit _ -> "write_unit" | Read_unit -> "read_unit");
          strand = c.strand;
          width = c.width;
          first;
          last;
          defs = (match c.kind with Write_unit { defs } -> defs | Read_unit -> []);
          covered = List.map (fun o -> (read_instr o, read_slot o)) c.covered;
          dropped_reads = t.t_initial_reads - List.length c.covered;
          mrf_copy = c.mrf_write_required;
          candidates = List.filter_map Fun.id [ t.t_lrf; t.t_orf ];
          outcome = t.t_outcome;
        })
    units

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
  let placement = Placement.baseline k in
  let duchain = ctx.Context.duchain in
  (* Sampled once per run: the allocator hot path sees one bool. *)
  let ex = Obs.Explain.is_enabled () in
  (* Write units: one per def-use group, visiting each group once, at
     its first def in layout order (group ids are instruction ids).
     Ids are dense: write units first, then read units, in construction
     order; every later phase keys its per-candidate arrays by id. *)
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
  let nw = !next_id in
  let read_units =
    if config.Config.read_operands then build_read_units ctx ~first_id:nw else []
  in
  let all_units = write_units @ read_units in
  let ncands = nw + List.length read_units in
  (* Each candidate's savings at each level, computed once.  LRF
     savings exist only for LRF-eligible write units. *)
  let lrf_savings = Array.make ncands neg_infinity in
  List.iter
    (fun c -> if c.lrf_bank <> None then lrf_savings.(c.id) <- savings_of config k `Lrf c)
    write_units;
  let trails =
    if ex then
      Array.of_list
        (List.map
           (fun c ->
             {
               t_lrf = None;
               t_orf = None;
               t_shortened = 0;
               t_outcome = Obs.Explain.To_mrf;
               t_initial_reads = List.length c.covered;
             })
           all_units)
    else [||]
  in
  let trail c = trails.(c.id) in
  (* Pre-drain LRF verdicts for candidates the queue will never see:
     structurally ineligible ones and those with non-positive savings. *)
  if ex then
    List.iter
      (fun c ->
        if c.lrf_bank = None then
          (trail c).t_lrf <-
            Some
              {
                Obs.Explain.level = "lrf";
                savings =
                  (match c.kind with
                  | Write_unit _ -> safe_savings config k `Lrf c
                  | Read_unit -> 0.0);
                verdict = Obs.Explain.Ineligible (lrf_ineligibility config k c);
              }
        else begin
          let s = lrf_savings.(c.id) in
          if s <= 0.0 then
            (trail c).t_lrf <-
              Some
                {
                  Obs.Explain.level = "lrf";
                  savings = finite s;
                  verdict = Obs.Explain.Negative_savings;
                }
        end)
      all_units;
  (* One occupancy map per structure serves every strand: a unit's
     interval lies within its strand, and strands are disjoint layout
     intervals. *)
  let orf_occ = Occupancy.create ~entries:config.Config.orf_entries in
  let lrf_occ = Occupancy.create ~entries:(Config.lrf_banks config) in
  let stats = ref { write_units = List.length write_units; read_units = List.length read_units;
                    lrf_allocated = 0; orf_allocated = 0; partial_allocated = 0 } in
  (* Phase 1: LRF. *)
  let lrf_allocs : (cand * int) list ref = ref [] in
  let in_lrf = Array.make ncands false in
  List.iter
    (fun c ->
      let savings = lrf_savings.(c.id) in
      let first, last = interval_of c in
      let bank =
        match config.Config.lrf, c.lrf_bank with
        | Config.Unified, Some b -> if Occupancy.available lrf_occ ~entry:b ~first ~last then Some b else None
        | Config.Split, Some b ->
          (* A candidate with no covered reads may use any free bank. *)
          if c.covered = [] then Occupancy.find_free lrf_occ ~width:1 ~first ~last
          else if Occupancy.available lrf_occ ~entry:b ~first ~last then Some b
          else None
        | (Config.No_lrf | Config.Unified | Config.Split), None -> None
        | Config.No_lrf, Some _ -> None
      in
      match bank with
      | Some b ->
        Occupancy.reserve lrf_occ ~entry:b ~first ~last;
        lrf_allocs := (c, b) :: !lrf_allocs;
        in_lrf.(c.id) <- true;
        audit_alloc `Lrf c ~savings ~slot:b ~partial:false;
        if ex then begin
          (trail c).t_lrf <-
            Some
              { Obs.Explain.level = "lrf"; savings = finite savings; verdict = Obs.Explain.Chosen };
          (trail c).t_outcome <- Obs.Explain.To_lrf { bank = b }
        end;
        stats := { !stats with lrf_allocated = !stats.lrf_allocated + 1 }
      | None ->
        if ex then
          (trail c).t_lrf <-
            Some
              {
                Obs.Explain.level = "lrf";
                savings = finite savings;
                verdict = Obs.Explain.No_free_slot;
              })
    (by_priority lrf_savings (List.filter (fun c -> lrf_savings.(c.id) > 0.0) write_units));
  (* Phase 2: ORF for everything not already in the LRF. *)
  let orf_candidates = List.filter (fun c -> not in_lrf.(c.id)) write_units @ read_units in
  (* Variable-ORF support (Sec. 7): every ORF-resident value keeps an
     MRF copy so a warp granted fewer entries can fall back to it.
     LRF values are exempt — LRF banks are per-warp, never pooled. *)
  if config.Config.mirror_mrf then
    List.iter
      (fun c -> match c.kind with Write_unit _ -> c.mrf_write_required <- true | Read_unit -> ())
      orf_candidates;
  let orf_savings = Array.make ncands neg_infinity in
  List.iter (fun c -> orf_savings.(c.id) <- savings_of config k `Orf c) orf_candidates;
  if ex then
    List.iter
      (fun c ->
        let s = orf_savings.(c.id) in
        if s <= 0.0 then
          (trail c).t_orf <-
            Some
              {
                Obs.Explain.level = "orf";
                savings = finite s;
                verdict = Obs.Explain.Negative_savings;
              })
      orf_candidates;
  let orf_allocs : (cand * int) list ref = ref [] in
  (* A candidate that does not fit is shortened and retried in place;
     it never goes back in the queue. *)
  let rec attempt c ~savings:s ~shortened =
    if s <= 0.0 then begin
      (* Shortening drove the estimate negative: give up. *)
      if ex then
        (trail c).t_orf <-
          Some
            {
              Obs.Explain.level = "orf";
              savings = finite s;
              verdict = Obs.Explain.Negative_savings;
            }
    end
    else begin
      let first, last = interval_of c in
      match Occupancy.find_free orf_occ ~width:c.width ~first ~last with
      | Some e ->
        Occupancy.reserve_range orf_occ ~entry:e ~width:c.width ~first ~last;
        orf_allocs := (c, e) :: !orf_allocs;
        audit_alloc `Orf c ~savings:s ~slot:e ~partial:shortened;
        if ex then begin
          (trail c).t_orf <-
            Some { Obs.Explain.level = "orf"; savings = finite s; verdict = Obs.Explain.Chosen };
          (trail c).t_outcome <-
            Obs.Explain.To_orf { entry = e; shortened = (trail c).t_shortened }
        end;
        stats :=
          { !stats with
            orf_allocated = !stats.orf_allocated + 1;
            partial_allocated = !stats.partial_allocated + (if shortened then 1 else 0) }
      | None ->
        if config.Config.partial_ranges && shorten c then begin
          if ex then (trail c).t_shortened <- (trail c).t_shortened + 1;
          attempt c ~savings:(savings_of config k `Orf c) ~shortened:true
        end
        else if ex then
          (trail c).t_orf <-
            Some
              {
                Obs.Explain.level = "orf";
                savings = finite s;
                verdict = Obs.Explain.No_free_slot;
              }
    end
  in
  List.iter
    (fun c -> attempt c ~savings:orf_savings.(c.id) ~shortened:false)
    (by_priority orf_savings (List.filter (fun c -> orf_savings.(c.id) > 0.0) orf_candidates));
  (* Emit placements. *)
  let set_covered_srcs level c =
    List.iter
      (fun o -> Placement.set_src placement ~instr:(read_instr o) ~pos:(read_slot o) level)
      c.covered
  in
  List.iter
    (fun (c, bank) ->
      (match c.kind with
       | Write_unit { defs } ->
         List.iter
           (fun d ->
             Placement.set_dest placement ~instr:d
               { Placement.to_lrf = Some bank; to_orf = None; to_mrf = c.mrf_write_required })
           defs
       | Read_unit -> assert false);
      set_covered_srcs (Placement.From_lrf bank) c)
    !lrf_allocs;
  List.iter
    (fun (c, entry) ->
      match c.kind with
      | Write_unit { defs } ->
        List.iter
          (fun d ->
            Placement.set_dest placement ~instr:d
              { Placement.to_lrf = None; to_orf = Some entry; to_mrf = c.mrf_write_required })
          defs;
        set_covered_srcs (Placement.From_orf entry) c
      | Read_unit ->
        (match c.covered with
         | [] -> assert false
         | fill :: rest ->
           Placement.add_fill placement ~instr:(read_instr fill) ~pos:(read_slot fill) ~entry;
           List.iter
             (fun o ->
               Placement.set_src placement ~instr:(read_instr o) ~pos:(read_slot o)
                 (Placement.From_orf entry))
             rest))
    !orf_allocs;
  if ex then emit_decisions k trails all_units;
  (* Static ORF/LRF occupancy over the instruction stream, as counter
     tracks (simulated time = instruction id). *)
  if Obs.Counters.is_enabled () then begin
    let n = Ir.Kernel.instr_count k in
    for i = 0 to n - 1 do
      Obs.Counters.sample "alloc.orf_occupancy" ~at:(float_of_int i)
        (float_of_int (occupied_at orf_occ ~at:i));
      Obs.Counters.sample "alloc.lrf_occupancy" ~at:(float_of_int i)
        (float_of_int (occupied_at lrf_occ ~at:i))
    done
  end;
  let s = !stats in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:s.write_units m_write_units;
  Obs.Metrics.incr ~by:s.read_units m_read_units;
  Obs.Metrics.incr ~by:s.lrf_allocated m_lrf_allocated;
  Obs.Metrics.incr ~by:s.orf_allocated m_orf_allocated;
  Obs.Metrics.incr ~by:s.partial_allocated m_partial_allocated;
  (placement, s)

let run config ctx = Obs.Span.with_span "allocate" (fun () -> run_inner config ctx)

let place config ctx = fst (run config ctx)
