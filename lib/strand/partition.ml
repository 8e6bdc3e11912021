type t = {
  strand_of_instr : int array;
  starts : bool array;
  num_strands : int;
}

let m_partitions = Obs.Metrics.counter "strand.partitions"
let m_strands = Obs.Metrics.counter "strand.strands"
let m_strand_len = Obs.Metrics.histogram "strand.instrs_per_strand"

type boundary_kinds = {
  long_latency : bool;
  backward : bool;
  merge : bool;
}

let all_boundaries = { long_latency = true; backward = true; merge = true }

let compute ?(kinds = all_boundaries) (k : Ir.Kernel.t) (cfg : Analysis.Cfg.t)
    (reaching : Analysis.Reaching.t) =
  let nb = Ir.Kernel.block_count k in
  let ni = Ir.Kernel.instr_count k in
  let backward_target = Analysis.Cfg.backward_targets cfg in
  (* Pending long-latency definitions, as bit rows over the long-latency
     definition sites only ([ll_index], -1 for every other instruction). *)
  let ll_index = Array.make ni (-1) in
  let nl = ref 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      if Ir.Instr.is_long_latency i && Option.is_some i.Ir.Instr.dst then begin
        ll_index.(i.Ir.Instr.id) <- !nl;
        incr nl
      end)
    k.Ir.Kernel.instrs;
  let nl = !nl in
  let out_pending = Util.Bitset.matrix ~rows:nb nl in
  let pending = Util.Bitset.create nl in
  let may = Util.Bitset.create nl and must = Util.Bitset.create nl in
  let is_pending d =
    let j = ll_index.(d) in
    j >= 0 && Util.Bitset.mem pending j
  in
  (* Does a read among slots [slot, n) of [id] have a pending reaching
     def?  [j] walks the current slot's reaching defs. *)
  let rec consumes_pending id slot n j =
    slot < n
    &&
    if j < Analysis.Reaching.num_reaching reaching ~instr_id:id ~slot then
      is_pending (Analysis.Reaching.nth_reaching reaching ~instr_id:id ~slot j)
      || consumes_pending id slot n (j + 1)
    else consumes_pending id (slot + 1) n 0
  in
  let prev_block_ends_backward = Array.make nb false in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      if l + 1 < nb && Ir.Terminator.is_backward b.Ir.Block.term ~at:l then
        prev_block_ends_backward.(l + 1) <- true)
    k.Ir.Kernel.blocks;
  (* Single pass in label order: forward preds are already done; cycles
     are cut at backward targets where the pending set is cleared.  The
     same pass numbers the strands in layout order: a boundary before a
     block (held across empty blocks) or before an instruction starts a
     new strand, except before the kernel's first instruction, which
     starts strand 0. *)
  let strand_of_instr = Array.make ni 0 in
  let starts = Array.make ni false in
  let current = ref 0 in
  let pending_block_boundary = ref false in
  let seen_any = ref false in
  for l = 0 to nb - 1 do
    let b = k.Ir.Kernel.blocks.(l) in
    Util.Bitset.clear_all pending;
    if l = 0 then ()
    else if backward_target.(l) || prev_block_ends_backward.(l) then begin
      (* The pending set always clears here (the dataflow stays a single
         pass), but the boundary itself is subject to [kinds.backward]. *)
      if kinds.backward then pending_block_boundary := true
    end
    else begin
      let preds = List.filter (fun p -> cfg.Analysis.Cfg.rpo_index.(p) >= 0) cfg.Analysis.Cfg.preds.(l) in
      match preds with
      | [] -> ()  (* unreachable or orphan block: empty pending *)
      | first :: rest ->
        Util.Bitset.load_row ~dst:may out_pending first;
        Util.Bitset.load_row ~dst:must out_pending first;
        List.iter
          (fun p ->
            ignore (Util.Bitset.union_row_into ~dst:may out_pending p);
            ignore (Util.Bitset.inter_row_into ~dst:must out_pending p))
          rest;
        if Util.Bitset.equal may must then
          ignore (Util.Bitset.union_into ~dst:pending may)
        else if kinds.merge then
          (* Uncertain merge (Fig. 5(b)): extra strand endpoint. *)
          pending_block_boundary := true
        else ignore (Util.Bitset.union_into ~dst:pending must)
    end;
    Array.iter
      (fun (i : Ir.Instr.t) ->
        let id = i.Ir.Instr.id in
        let consumes = consumes_pending id 0 (List.length i.Ir.Instr.srcs) 0 in
        if consumes then Util.Bitset.clear_all pending;
        if (!pending_block_boundary || (consumes && kinds.long_latency)) && !seen_any then begin
          incr current;
          starts.(id) <- true
        end;
        if not !seen_any then starts.(id) <- true;
        seen_any := true;
        pending_block_boundary := false;
        strand_of_instr.(id) <- !current;
        if ll_index.(id) >= 0 then Util.Bitset.set pending ll_index.(id))
      b.Ir.Block.instrs;
    if Ir.Terminator.is_backward b.Ir.Block.term ~at:l then Util.Bitset.clear_all pending;
    Util.Bitset.store_row out_pending l pending
  done;
  let num_strands = if ni = 0 then 0 else !current + 1 in
  Obs.Metrics.incr m_partitions;
  Obs.Metrics.incr ~by:num_strands m_strands;
  (* Strand ids grow along the layout, so each strand is one run of
     ids, ended by the next start or the kernel's end. *)
  let first = ref 0 in
  for id = 1 to ni do
    if id = ni || starts.(id) then begin
      Obs.Metrics.observe m_strand_len (float_of_int (id - !first));
      first := id
    end
  done;
  if Obs.Audit.is_enabled () then
    Array.iteri
      (fun id strand ->
        if starts.(id) then Obs.Audit.emit (Obs.Audit.Strand_boundary { instr = id; strand }))
      strand_of_instr;
  { strand_of_instr; starts; num_strands }

let num_strands t = t.num_strands

let strand_of_instr t id = t.strand_of_instr.(id)

let starts_strand t id = t.starts.(id)
