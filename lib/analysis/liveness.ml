type t = {
  kernel : Ir.Kernel.t;
  block_live_out : Util.Bitset.matrix;  (* per block: registers live at exit *)
}

let compute (k : Ir.Kernel.t) (cfg : Cfg.t) =
  let nb = Ir.Kernel.block_count k in
  let nr = k.Ir.Kernel.num_regs in
  (* live_in starts as use(b), read before any write in b; def(b):
     written in b. *)
  let live_in = Util.Bitset.matrix ~rows:nb nr in
  let def = Util.Bitset.matrix ~rows:nb nr in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      Array.iter
        (fun (i : Ir.Instr.t) ->
          List.iter
            (fun r -> if not (Util.Bitset.row_mem def l r) then Util.Bitset.row_set live_in l r)
            i.Ir.Instr.srcs;
          match i.Ir.Instr.dst with Some r -> Util.Bitset.row_set def l r | None -> ())
        b.Ir.Block.instrs)
    k.Ir.Kernel.blocks;
  let live_out = Util.Bitset.matrix ~rows:nb nr in
  Cfg.solve_union cfg ~forward:false ~join:live_out ~transfer:live_in ~kill:(fun b s ->
      ignore (Util.Bitset.diff_row_into ~dst:s def b));
  { kernel = k; block_live_out = live_out }

(* Each block bottom up: [live] starts as the block's live-out set and
   is stepped back over each instruction after [f] has seen it. *)
let iter_live_after t f =
  let live = Util.Bitset.create t.kernel.Ir.Kernel.num_regs in
  Array.iter
    (fun (b : Ir.Block.t) ->
      Util.Bitset.load_row ~dst:live t.block_live_out b.Ir.Block.label;
      for idx = Array.length b.Ir.Block.instrs - 1 downto 0 do
        let i = b.Ir.Block.instrs.(idx) in
        f i live;
        (match i.Ir.Instr.dst with Some r -> Util.Bitset.clear live r | None -> ());
        List.iter (fun r -> Util.Bitset.set live r) i.Ir.Instr.srcs
      done)
    t.kernel.Ir.Kernel.blocks
