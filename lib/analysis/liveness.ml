type t = {
  kernel : Ir.Kernel.t;
  block_live_in : Util.Bitset.matrix;   (* per block: registers live at entry *)
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
  { kernel = k; block_live_in = live_in; block_live_out = live_out }

let live_in_bits t b = Util.Bitset.row t.block_live_in b
let live_out_bits t b = Util.Bitset.row t.block_live_out b

(* One block, bottom up: [live] starts as the block's live-out set and
   is stepped back over each instruction after [f] has seen it. *)
let walk_block t live (b : Ir.Block.t) f =
  Util.Bitset.load_row ~dst:live t.block_live_out b.Ir.Block.label;
  for idx = Array.length b.Ir.Block.instrs - 1 downto 0 do
    let i = b.Ir.Block.instrs.(idx) in
    f i live;
    (match i.Ir.Instr.dst with Some r -> Util.Bitset.clear live r | None -> ());
    List.iter (fun r -> Util.Bitset.set live r) i.Ir.Instr.srcs
  done

let iter_live_after t f =
  let live = Util.Bitset.create t.kernel.Ir.Kernel.num_regs in
  Array.iter (fun b -> walk_block t live b f) t.kernel.Ir.Kernel.blocks

let set_of_row m b =
  let acc = ref Ir.Reg.Set.empty in
  Util.Bitset.iter_row m b (fun r -> acc := Ir.Reg.Set.add r !acc);
  !acc

let live_in t b = set_of_row t.block_live_in b
let live_out t b = set_of_row t.block_live_out b

let live_after_instr t ~instr_id r =
  let k = t.kernel in
  let found = ref false in
  walk_block t
    (Util.Bitset.create k.Ir.Kernel.num_regs)
    k.Ir.Kernel.blocks.(Ir.Kernel.block_of k instr_id)
    (fun i live -> if i.Ir.Instr.id = instr_id then found := Util.Bitset.mem live r);
  !found
