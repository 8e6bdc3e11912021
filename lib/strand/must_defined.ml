type t = {
  kernel : Ir.Kernel.t;
  partition : Partition.t;
  entry_sets : Util.Bitset.t array;  (* per block: must-defined at block entry *)
}

let compute (k : Ir.Kernel.t) (cfg : Analysis.Cfg.t) (partition : Partition.t) =
  let nb = Ir.Kernel.block_count k in
  let nr = k.Ir.Kernel.num_regs in
  let reachable = Analysis.Cfg.reachable cfg in
  let entry_sets = Array.init nb (fun _ -> Util.Bitset.create nr) in
  let out_sets = Array.init nb (fun _ -> Util.Bitset.create nr) in
  for l = 0 to nb - 1 do
    let b = k.Ir.Kernel.blocks.(l) in
    let entry = entry_sets.(l) in
    (* Strand context entering block l: does its first instruction start
       a strand?  Empty blocks inherit the incoming context. *)
    let boundary_at_start =
      match Ir.Block.first_id b with
      | Some id -> Partition.starts_strand partition id
      | None -> false
    in
    if l > 0 && not boundary_at_start then begin
      let preds = List.filter (fun p -> reachable.(p)) cfg.Analysis.Cfg.preds.(l) in
      match preds with
      | [] -> ()
      | first :: rest ->
        ignore (Util.Bitset.union_into ~dst:entry out_sets.(first));
        List.iter (fun p -> ignore (Util.Bitset.inter_into ~dst:entry out_sets.(p))) rest
    end;
    let cur = out_sets.(l) in
    ignore (Util.Bitset.union_into ~dst:cur entry);
    Array.iter
      (fun (i : Ir.Instr.t) ->
        if Partition.starts_strand partition i.Ir.Instr.id then Util.Bitset.clear_all cur;
        Option.iter (fun r -> Util.Bitset.set cur r) i.Ir.Instr.dst)
      b.Ir.Block.instrs
  done;
  { kernel = k; partition; entry_sets }

(* Walk back from the instruction to the last strand start or write of
   [r] in its block; the block's entry set answers if neither comes
   first.  A write at a strand's first instruction follows the reset. *)
let must_defined_before t ~instr_id r =
  let k = t.kernel in
  let block = Ir.Kernel.block_of k instr_id in
  let rec back id =
    if Partition.starts_strand t.partition id then false
    else if id = 0 || Ir.Kernel.block_of k (id - 1) <> block then
      Util.Bitset.mem t.entry_sets.(block) r
    else
      match (Ir.Kernel.instr k (id - 1)).Ir.Instr.dst with
      | Some x when x = r -> true
      | Some _ | None -> back (id - 1)
  in
  back instr_id
