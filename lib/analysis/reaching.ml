type t = {
  kernel : Ir.Kernel.t;
  def_sites : int list array;              (* per register, layout order *)
  block_in : Util.Bitset.t array;          (* def-site sets at block entry *)
  block_out : Util.Bitset.t array;
  def_index : int array;                   (* instr id -> dense def index, or -1 *)
  operands : int list array;               (* instr id * num_slots + slot -> reaching defs *)
}

let entry_defs t block r =
  List.filter (fun d -> Util.Bitset.mem t.block_in.(block) t.def_index.(d)) t.def_sites.(r)

let compute (k : Ir.Kernel.t) (cfg : Cfg.t) =
  let nb = Ir.Kernel.block_count k in
  let nr = k.Ir.Kernel.num_regs in
  let ni = Ir.Kernel.instr_count k in
  (* Each register's definition sites, and a dense numbering of all
     sites (the bit positions, last site first). *)
  let def_index = Array.make ni (-1) in
  let def_sites = Array.make nr [] in
  let nd = ref 0 in
  for id = ni - 1 downto 0 do
    Option.iter
      (fun r ->
        def_sites.(r) <- id :: def_sites.(r);
        def_index.(id) <- !nd;
        incr nd)
      (Ir.Kernel.instr k id).Ir.Instr.dst
  done;
  let nd = !nd in
  (* block_out starts as gen(b), the last def of each register written
     in b; kill(b): every def of those registers (gen re-adds the
     survivors).  [last_def.(r)] is r's last def in the block being
     walked while [last_block.(r)] names that block. *)
  let block_out = Array.init nb (fun _ -> Util.Bitset.create nd) in
  let kill = Array.init nb (fun _ -> Util.Bitset.create nd) in
  let last_def = Array.make nr (-1) and last_block = Array.make nr (-1) in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let l = Ir.Kernel.block_of k i.Ir.Instr.id in
      Option.iter
        (fun r ->
          if last_block.(r) <> l then
            List.iter (fun d -> Util.Bitset.set kill.(l) def_index.(d)) def_sites.(r)
          else Util.Bitset.clear block_out.(l) def_index.(last_def.(r));
          Util.Bitset.set block_out.(l) def_index.(i.Ir.Instr.id);
          last_def.(r) <- i.Ir.Instr.id;
          last_block.(r) <- l)
        i.Ir.Instr.dst)
    k.Ir.Kernel.instrs;
  let block_in = Array.init nb (fun _ -> Util.Bitset.create nd) in
  Cfg.solve_union cfg ~forward:true ~join:block_in ~transfer:block_out ~kill;
  (* The per-operand table, one forward walk: the last in-block def if
     there is one, else the register's defs live at block entry (one
     list per block and register). *)
  let t =
    { kernel = k; def_sites; block_in; block_out; def_index;
      operands = Array.make (ni * Ir.Instr.num_slots) [] }
  in
  let singleton = Array.map (fun (i : Ir.Instr.t) -> [ i.Ir.Instr.id ]) k.Ir.Kernel.instrs in
  let at_entry = Array.make nr [] and at_entry_block = Array.make nr (-1) in
  Array.fill last_block 0 nr (-1);
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      let l = Ir.Kernel.block_of k id in
      List.iteri
        (fun slot r ->
          t.operands.((id * Ir.Instr.num_slots) + slot) <-
            (if last_block.(r) = l then singleton.(last_def.(r))
             else begin
               if at_entry_block.(r) <> l then begin
                 at_entry_block.(r) <- l;
                 at_entry.(r) <- entry_defs t l r
               end;
               at_entry.(r)
             end))
        i.Ir.Instr.srcs;
      Option.iter
        (fun r ->
          last_def.(r) <- id;
          last_block.(r) <- l)
        i.Ir.Instr.dst)
    k.Ir.Kernel.instrs;
  t

let reaching_operand t ~instr_id ~slot = t.operands.((instr_id * Ir.Instr.num_slots) + slot)

let reaching_before t ~instr_id r =
  let k = t.kernel in
  let block = Ir.Kernel.block_of k instr_id in
  (* Not an operand: the last def of r before the instruction in its
     block, else r's defs live at block entry. *)
  let rec last_def id =
    if id < 0 || Ir.Kernel.block_of k id <> block then entry_defs t block r
    else
      match (Ir.Kernel.instr k id).Ir.Instr.dst with
      | Some x when x = r -> [ id ]
      | Some _ | None -> last_def (id - 1)
  in
  let rec find slot = function
    | [] -> last_def (instr_id - 1)
    | r' :: rest -> if r' = r then reaching_operand t ~instr_id ~slot else find (slot + 1) rest
  in
  find 0 (Ir.Kernel.instr k instr_id).Ir.Instr.srcs

let reaches_block_end t ~block ~def =
  let di = t.def_index.(def) in
  di >= 0 && Util.Bitset.mem t.block_out.(block) di
