(* Every table is a flat int array, so nothing the analysis stores is
   a pointer into the minor heap.

   The per-operand table, at [id * num_slots + slot]: a site id >= 0 is
   the one definition reaching that read, [none] means none does, and a
   value [v <= -2] means several do: [shared.(-2 - v)] holds their count
   and the sites follow it, ascending. *)
type t = { operands : int array; shared : int array }

let none = -1

(* A depth-first walk's scratch: block b is marked when [seen.(b)]
   equals the walk's [stamp]. *)
type walk = { seen : int array; stack : int array; mutable stamp : int }

(* Is block [b] reachable from block [a] over at least one edge?  When
   [a] strictly dominates [b] it is: b is reachable from the entry and
   every path there passes a.  That settles all but a few reads of a
   one-definition register (a def on one side of a hammock read after
   it, a read at a loop head of a value defined later in the loop);
   those walk forward from a's successors, in the scratch [w] (made on
   first use). *)
let reaches (cfg : Cfg.t) dominance w a b =
  (a <> b && Dominance.dominates dominance a b)
  ||
  let w = Lazy.force w in
  let top = ref 0 in
  let push x =
    if w.seen.(x) <> w.stamp then begin
      w.seen.(x) <- w.stamp;
      w.stack.(!top) <- x;
      incr top
    end
  in
  w.stamp <- w.stamp + 1;
  List.iter push cfg.Cfg.succs.(a);
  let found = ref false in
  while (not !found) && !top > 0 do
    decr top;
    let x = w.stack.(!top) in
    if x = b then found := true else List.iter push cfg.Cfg.succs.(x)
  done;
  !found

let compute (k : Ir.Kernel.t) (cfg : Cfg.t) (dominance : Dominance.t) =
  let nb = Ir.Kernel.block_count k in
  let nr = k.Ir.Kernel.num_regs in
  let ni = Ir.Kernel.instr_count k in
  (* A register's definition sites are [sites.(site_start.(r) ..
     site_start.(r + 1) - 1)], in layout order: counted, then filled
     with [site_start.(r)] as r's cursor, which leaves it at r + 1's
     offset until the offsets are shifted back. *)
  let site_start = Array.make (nr + 1) 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.dst with
      | Some r -> site_start.(r + 1) <- site_start.(r + 1) + 1
      | None -> ())
    k.Ir.Kernel.instrs;
  for r = 1 to nr do
    site_start.(r) <- site_start.(r) + site_start.(r - 1)
  done;
  let sites = Array.make site_start.(nr) 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.dst with
      | Some r ->
        sites.(site_start.(r)) <- i.Ir.Instr.id;
        site_start.(r) <- site_start.(r) + 1
      | None -> ())
    k.Ir.Kernel.instrs;
  Array.blit site_start 0 site_start 1 nr;
  site_start.(0) <- 0;
  let def_count r = site_start.(r + 1) - site_start.(r) in
  let multi r = def_count r > 1 in
  (* The sites of registers with several definitions are numbered
     densely ([multi_index], -1 for every other instruction) and only
     they take part in the block-level fixpoint. *)
  let multi_index = Array.make ni (-1) in
  let nm = ref 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.dst with
      | Some r when multi r ->
        multi_index.(i.Ir.Instr.id) <- !nm;
        incr nm
      | Some _ | None -> ())
    k.Ir.Kernel.instrs;
  let nm = !nm in
  (* Per register, for the block being walked: [stamp.(r) = l] while
     walking block l means [value.(r)] holds r's fact there (its last
     def in l so far, below; what reaches a read of r, in the operand
     walk). *)
  let stamp = Array.make nr (-1) and value = Array.make nr none in
  (* The fixpoint over multi-definition sites.  block_out starts as
     gen(b), the last def of each such register written in b; kill(b),
     applied to a set, removes every def of those registers. *)
  let block_out = Util.Bitset.matrix ~rows:nb nm in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      if multi_index.(id) >= 0 then begin
        let l = Ir.Kernel.block_of k id in
        let r = Option.get i.Ir.Instr.dst in
        if stamp.(r) = l then Util.Bitset.row_clear block_out l multi_index.(value.(r));
        Util.Bitset.row_set block_out l multi_index.(id);
        stamp.(r) <- l;
        value.(r) <- id
      end)
    k.Ir.Kernel.instrs;
  let kill b set =
    Array.iter
      (fun (i : Ir.Instr.t) ->
        match i.Ir.Instr.dst with
        | Some r when multi r ->
          for j = site_start.(r) to site_start.(r + 1) - 1 do
            Util.Bitset.clear set multi_index.(sites.(j))
          done
        | Some _ | None -> ())
      k.Ir.Kernel.blocks.(b).Ir.Block.instrs
  in
  let block_in = Util.Bitset.matrix ~rows:nb nm in
  Cfg.solve_union cfg ~forward:true ~join:block_in ~transfer:block_out ~kill;
  (* A register with one definition site d needs no fixpoint: every
     path from d is definition-clear, so d reaches the entry of block b
     iff some path of at least one edge leads from d's block to b.
     [reaches_entry l r j]: does r's site number [j] (of its list)
     reach the entry of block [l]? *)
  let w = lazy { seen = Array.make nb (-1); stack = Array.make nb 0; stamp = 0 } in
  let reaches_entry l r j =
    let d = sites.(site_start.(r) + j) in
    if def_count r = 1 then reaches cfg dominance w (Ir.Kernel.block_of k d) l
    else Util.Bitset.row_mem block_in l multi_index.(d)
  in
  (* The per-operand table, one forward walk.  Within a block, a read
     of r takes r's last def before it if there is one, else r's defs
     live at block entry, coded once per block and register (the reads
     of one block share a list of several sites); either is then r's
     [value] for the rest of the block until r is written. *)
  let operands = Array.make (ni * Ir.Instr.num_slots) none in
  let shared = Util.Intbuf.create 64 in
  let entry_code l r =
    let n = ref 0 and only = ref none in
    for j = 0 to def_count r - 1 do
      if reaches_entry l r j then begin
        incr n;
        only := sites.(site_start.(r) + j)
      end
    done;
    if !n <= 1 then !only
    else begin
      let code = -2 - Util.Intbuf.length shared in
      Util.Intbuf.push shared !n;
      for j = 0 to def_count r - 1 do
        if reaches_entry l r j then Util.Intbuf.push shared sites.(site_start.(r) + j)
      done;
      code
    end
  in
  let rec fill id l slot = function
    | [] -> ()
    | r :: rest ->
      if stamp.(r) <> l then begin
        stamp.(r) <- l;
        value.(r) <- entry_code l r
      end;
      operands.((id * Ir.Instr.num_slots) + slot) <- value.(r);
      fill id l (slot + 1) rest
  in
  Array.fill stamp 0 nr (-1);
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      let l = Ir.Kernel.block_of k id in
      fill id l 0 i.Ir.Instr.srcs;
      match i.Ir.Instr.dst with
      | Some r ->
        stamp.(r) <- l;
        value.(r) <- id
      | None -> ())
    k.Ir.Kernel.instrs;
  { operands; shared = Util.Intbuf.to_array shared }

let code t ~instr_id ~slot = t.operands.((instr_id * Ir.Instr.num_slots) + slot)

let num_reaching t ~instr_id ~slot =
  let c = code t ~instr_id ~slot in
  if c >= 0 then 1 else if c = none then 0 else t.shared.(-2 - c)

let nth_reaching t ~instr_id ~slot n =
  let c = code t ~instr_id ~slot in
  if c >= 0 then c else t.shared.(-2 - c + 1 + n)
