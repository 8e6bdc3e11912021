type t = {
  num_blocks : int;
  succs : int list array;
  preds : int list array;
  rpo : int array;
  rpo_index : int array;
}

(* One depth-first walk from the entry: each block is consed as it
   finishes, last finished first; [rpo_index] marks a block seen (0)
   before it holds the block's position. *)
let make ~succs ~preds =
  let num_blocks = Array.length succs in
  let rpo_index = Array.make num_blocks (-1) and order = ref [] in
  let rec visit b =
    if rpo_index.(b) < 0 then begin
      rpo_index.(b) <- 0;
      List.iter visit succs.(b);
      order := b :: !order
    end
  in
  if num_blocks > 0 then visit 0;
  let rpo = Array.of_list !order in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  { num_blocks; succs; preds; rpo; rpo_index }

let of_kernel (k : Ir.Kernel.t) =
  let num_blocks = Ir.Kernel.block_count k in
  let succs = Array.make num_blocks [] in
  let preds = Array.make num_blocks [] in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let ss = Ir.Terminator.successors b.Ir.Block.term ~at:b.Ir.Block.label ~num_blocks in
      succs.(b.Ir.Block.label) <- ss;
      List.iter (fun s -> preds.(s) <- b.Ir.Block.label :: preds.(s)) ss)
    k.Ir.Kernel.blocks;
  Array.iteri (fun i ps -> preds.(i) <- List.rev ps) preds;
  make ~succs ~preds

let backward_targets t =
  let targets = Array.make t.num_blocks false in
  for src = 0 to t.num_blocks - 1 do
    List.iter (fun dst -> if dst <= src then targets.(dst) <- true) t.succs.(src)
  done;
  targets

let solve_union t ~forward ~join ~transfer ~kill =
  let nb = t.num_blocks in
  let sources, sinks = if forward then (t.preds, t.succs) else (t.succs, t.preds) in
  let tmp = Util.Bitset.create (Util.Bitset.cols join) in
  let pending = Array.make nb true in
  let step = if forward then 1 else -1 in
  let cursor = ref (if forward then 0 else nb - 1) in
  while !cursor >= 0 && !cursor < nb do
    let b = !cursor in
    cursor := b + step;
    if pending.(b) then begin
      pending.(b) <- false;
      let grew =
        List.fold_left
          (fun grew x -> Util.Bitset.union_rows ~dst:join b transfer x || grew)
          false sources.(b)
      in
      if grew then begin
        Util.Bitset.load_row ~dst:tmp join b;
        kill b tmp;
        if Util.Bitset.union_into_row transfer b tmp then
          List.iter
            (fun x ->
              pending.(x) <- true;
              (* A sink the sweep has passed moves the cursor back. *)
              if (x - !cursor) * step < 0 then cursor := x)
            sinks.(b)
      end
    end
  done
