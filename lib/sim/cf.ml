(* State is flat mutable ints so [advance]/[peek_id] allocate nothing:
   the timing loop calls them once per warp-instruction.  [block] < 0
   encodes the terminal state ([capped] distinguishes cap from [Ret]);
   [cur_id] tracks the instruction id at (block, index) incrementally —
   ids are dense in layout order, so within a block it just counts up. *)
type t = {
  mutable kernel : Ir.Kernel.t;
  mutable warp : int;
  mutable seed : int;
  mutable max_dynamic : int;
  mutable trip_counts : int array;    (* per block: consecutive taken count of its Loop branch *)
  mutable visit_counts : int array;   (* per block: terminator resolutions so far *)
  mutable block : int;                (* current block, or -1 when done *)
  mutable index : int;                (* instruction index within the block *)
  mutable cur_id : int;               (* id of the current instruction, -1 when done *)
  mutable capped : bool;
  mutable executed : int;
}

let stop t ~capped =
  t.block <- -1;
  t.index <- 0;
  t.cur_id <- -1;
  t.capped <- capped

(* Land on the first block at or after [block] that has instructions,
   following fallthrough/jump chains of empty blocks. *)
let rec settle t block steps =
  if steps > Ir.Kernel.block_count t.kernel * 2 then stop t ~capped:true
  else begin
    let b = t.kernel.Ir.Kernel.blocks.(block) in
    if Array.length b.Ir.Block.instrs > 0 then begin
      t.block <- block;
      t.index <- 0;
      t.cur_id <- b.Ir.Block.instrs.(0).Ir.Instr.id
    end
    else resolve_terminator t block (steps + 1)
  end

and resolve_terminator t block steps =
  let b = t.kernel.Ir.Kernel.blocks.(block) in
  t.visit_counts.(block) <- t.visit_counts.(block) + 1;
  match b.Ir.Block.term with
  | Ir.Terminator.Fallthrough -> fall_through t block steps
  | Ir.Terminator.Jump l -> settle t l steps
  | Ir.Terminator.Ret -> stop t ~capped:false
  | Ir.Terminator.Branch { target; behavior } ->
    let taken =
      match behavior with
      | Ir.Terminator.Always_taken -> true
      | Ir.Terminator.Never_taken -> false
      | Ir.Terminator.Loop n ->
        if t.trip_counts.(block) < n - 1 then begin
          t.trip_counts.(block) <- t.trip_counts.(block) + 1;
          true
        end
        else begin
          t.trip_counts.(block) <- 0;
          false
        end
      | Ir.Terminator.Taken_with_prob p ->
        let h =
          Util.Prng.hash2 (Util.Prng.hash2 t.seed t.warp)
            (Util.Prng.hash2 block t.visit_counts.(block))
        in
        float_of_int (h land 0xFFFFFF) /. 16777216.0 < p
    in
    if taken then settle t target steps else fall_through t block steps

and fall_through t block steps =
  if block + 1 < Ir.Kernel.block_count t.kernel then settle t (block + 1) steps
  else stop t ~capped:false

let reset t ?(max_dynamic = 100_000) kernel ~warp ~seed =
  let nb = Ir.Kernel.block_count kernel in
  t.kernel <- kernel;
  t.warp <- warp;
  t.seed <- seed;
  t.max_dynamic <- max_dynamic;
  if Array.length t.trip_counts < nb then begin
    t.trip_counts <- Array.make nb 0;
    t.visit_counts <- Array.make nb 0
  end
  else begin
    Array.fill t.trip_counts 0 nb 0;
    Array.fill t.visit_counts 0 nb 0
  end;
  t.executed <- 0;
  stop t ~capped:false;
  settle t 0 0

let create ?(max_dynamic = 100_000) kernel ~warp ~seed =
  let t =
    {
      kernel;
      warp;
      seed;
      max_dynamic;
      trip_counts = [||];
      visit_counts = [||];
      block = -1;
      index = 0;
      cur_id = -1;
      capped = false;
      executed = 0;
    }
  in
  reset t ~max_dynamic kernel ~warp ~seed;
  t

let peek_id t = t.cur_id

let peek t =
  if t.block < 0 then None
  else Some t.kernel.Ir.Kernel.blocks.(t.block).Ir.Block.instrs.(t.index)

let advance t =
  if t.block >= 0 then begin
    t.executed <- t.executed + 1;
    if t.executed >= t.max_dynamic then stop t ~capped:true
    else begin
      let b = t.kernel.Ir.Kernel.blocks.(t.block) in
      if t.index + 1 < Array.length b.Ir.Block.instrs then begin
        t.index <- t.index + 1;
        t.cur_id <- t.cur_id + 1
      end
      else resolve_terminator t t.block 0
    end
  end

let finished t = t.block < 0
let dynamic_count t = t.executed
let hit_cap t = t.block < 0 && t.capped

let warp_invariant (k : Ir.Kernel.t) =
  Array.for_all
    (fun (b : Ir.Block.t) ->
      match b.Ir.Block.term with
      | Ir.Terminator.Branch { behavior = Ir.Terminator.Taken_with_prob _; _ } -> false
      | _ -> true)
    k.Ir.Kernel.blocks
