type t = {
  strand_of_instr : int array;
  starts : bool array;
  starts_bits : Util.Bitset.t;    (* same content as [starts], O(1) words *)
  intervals : (int * int) array;  (* strand id -> first, last instr id *)
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
  let reachable = Analysis.Cfg.reachable cfg in
  let backward_target = Analysis.Cfg.backward_targets cfg in
  (* Pending long-latency definition sites, as bitsets over instr ids. *)
  let out_pending = Array.init nb (fun _ -> Util.Bitset.create ni) in
  let boundary_before = Array.make ni false in
  let block_start_boundary = Array.make nb false in
  let prev_block_ends_backward = Array.make nb false in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      if l + 1 < nb && Ir.Terminator.is_backward b.Ir.Block.term ~at:l then
        prev_block_ends_backward.(l + 1) <- true)
    k.Ir.Kernel.blocks;
  (* Single pass in label order: forward preds are already done; cycles
     are cut at backward targets where the pending set is cleared. *)
  for l = 0 to nb - 1 do
    let b = k.Ir.Kernel.blocks.(l) in
    let pending = Util.Bitset.create ni in
    if l = 0 then ()
    else if backward_target.(l) || prev_block_ends_backward.(l) then
      (* The pending set always clears here (the dataflow stays a single
         pass), but the boundary itself is subject to [kinds.backward]. *)
      block_start_boundary.(l) <- kinds.backward
    else begin
      let preds = List.filter (fun p -> reachable.(p)) cfg.Analysis.Cfg.preds.(l) in
      match preds with
      | [] -> ()  (* unreachable or orphan block: empty pending *)
      | first :: rest ->
        let may = Util.Bitset.copy out_pending.(first) in
        let must = Util.Bitset.copy out_pending.(first) in
        List.iter
          (fun p ->
            ignore (Util.Bitset.union_into ~dst:may out_pending.(p));
            ignore (Util.Bitset.inter_into ~dst:must out_pending.(p)))
          rest;
        if Util.Bitset.equal may must then
          ignore (Util.Bitset.union_into ~dst:pending may)
        else if kinds.merge then
          (* Uncertain merge (Fig. 5(b)): extra strand endpoint. *)
          block_start_boundary.(l) <- true
        else ignore (Util.Bitset.union_into ~dst:pending must)
    end;
    Array.iter
      (fun (i : Ir.Instr.t) ->
        let id = i.Ir.Instr.id in
        let rec consumes_pending slot = function
          | [] -> false
          | _ :: rest ->
            List.exists
              (fun d -> Util.Bitset.mem pending d)
              (Analysis.Reaching.reaching_operand reaching ~instr_id:id ~slot)
            || consumes_pending (slot + 1) rest
        in
        if consumes_pending 0 i.Ir.Instr.srcs then begin
          boundary_before.(id) <- kinds.long_latency;
          Util.Bitset.clear_all pending
        end;
        if Ir.Instr.is_long_latency i && Option.is_some i.Ir.Instr.dst then
          Util.Bitset.set pending id)
      b.Ir.Block.instrs;
    if Ir.Terminator.is_backward b.Ir.Block.term ~at:l then Util.Bitset.clear_all pending;
    out_pending.(l) <- pending
  done;
  (* Project boundaries onto layout order and number the strands. *)
  let strand_of_instr = Array.make ni 0 in
  let starts = Array.make ni false in
  let current = ref 0 in
  let pending_block_boundary = ref false in
  let seen_any = ref false in
  Array.iter
    (fun (b : Ir.Block.t) ->
      if block_start_boundary.(b.Ir.Block.label) then pending_block_boundary := true;
      Array.iter
        (fun (i : Ir.Instr.t) ->
          let id = i.Ir.Instr.id in
          if (!pending_block_boundary || boundary_before.(id)) && !seen_any then begin
            incr current;
            starts.(id) <- true
          end;
          if not !seen_any then starts.(id) <- true;
          seen_any := true;
          pending_block_boundary := false;
          strand_of_instr.(id) <- !current)
        b.Ir.Block.instrs)
    k.Ir.Kernel.blocks;
  let num = if ni = 0 then 0 else !current + 1 in
  let intervals = Array.make num (0, -1) in
  for id = 0 to ni - 1 do
    let s = strand_of_instr.(id) in
    let first, last = intervals.(s) in
    let first = if last < 0 then id else first in
    intervals.(s) <- (first, id)
  done;
  Obs.Metrics.incr m_partitions;
  Obs.Metrics.incr ~by:num m_strands;
  Array.iter
    (fun (first, last) -> Obs.Metrics.observe m_strand_len (float_of_int (last - first + 1)))
    intervals;
  if Obs.Audit.is_enabled () then
    Array.iteri
      (fun id strand ->
        if starts.(id) then Obs.Audit.emit (Obs.Audit.Strand_boundary { instr = id; strand }))
      strand_of_instr;
  let starts_bits = Util.Bitset.create ni in
  Array.iteri (fun id b -> if b then Util.Bitset.set starts_bits id) starts;
  { strand_of_instr; starts; starts_bits; intervals }

let num_strands t = Array.length t.intervals

let strand_of_instr t id = t.strand_of_instr.(id)

let starts_strand t id = t.starts.(id)

let starts_bits t = t.starts_bits

let same_strand t a b = t.strand_of_instr.(a) = t.strand_of_instr.(b)

let strand_interval t s = t.intervals.(s)

let strand_ids t = List.init (num_strands t) Fun.id

let boundary_count t = num_strands t
