type t = {
  block_live_in : Util.Bitset.t array;
  block_live_out : Util.Bitset.t array;
  after_instr : Util.Bitset.t array;  (* indexed by instruction id *)
}

let compute (k : Ir.Kernel.t) (cfg : Cfg.t) =
  let nb = Ir.Kernel.block_count k in
  let nr = k.Ir.Kernel.num_regs in
  (* live_in starts as use(b), read before any write in b; def(b):
     written in b. *)
  let live_in = Array.init nb (fun _ -> Util.Bitset.create nr) in
  let def = Array.init nb (fun _ -> Util.Bitset.create nr) in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      Array.iter
        (fun (i : Ir.Instr.t) ->
          List.iter
            (fun r -> if not (Util.Bitset.mem def.(l) r) then Util.Bitset.set live_in.(l) r)
            i.Ir.Instr.srcs;
          Option.iter (fun r -> Util.Bitset.set def.(l) r) i.Ir.Instr.dst)
        b.Ir.Block.instrs)
    k.Ir.Kernel.blocks;
  let live_out = Array.init nb (fun _ -> Util.Bitset.create nr) in
  Cfg.solve_union cfg ~forward:false ~join:live_out ~transfer:live_in ~kill:def;
  (* Per-instruction live-after sets by a backward walk of each block. *)
  let after_instr = Array.init (Ir.Kernel.instr_count k) (fun _ -> Util.Bitset.create nr) in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let live = Util.Bitset.copy live_out.(b.Ir.Block.label) in
      let n = Array.length b.Ir.Block.instrs in
      for idx = n - 1 downto 0 do
        let i = b.Ir.Block.instrs.(idx) in
        ignore (Util.Bitset.union_into ~dst:after_instr.(i.Ir.Instr.id) live);
        Option.iter (fun r -> Util.Bitset.clear live r) i.Ir.Instr.dst;
        List.iter (fun r -> Util.Bitset.set live r) i.Ir.Instr.srcs
      done)
    k.Ir.Kernel.blocks;
  { block_live_in = live_in; block_live_out = live_out; after_instr }

let live_in_bits t b = t.block_live_in.(b)
let live_out_bits t b = t.block_live_out.(b)
let live_after_bits t ~instr_id = t.after_instr.(instr_id)

let set_of_bitset bs =
  let acc = ref Ir.Reg.Set.empty in
  Util.Bitset.iter bs (fun r -> acc := Ir.Reg.Set.add r !acc);
  !acc

let live_in t b = set_of_bitset t.block_live_in.(b)
let live_out t b = set_of_bitset t.block_live_out.(b)

let live_after_instr t ~instr_id r = Util.Bitset.mem t.after_instr.(instr_id) r
