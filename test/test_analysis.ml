(* Unit tests for CFG, dominance, liveness, reaching definitions and
   def-use chains, on hand-crafted kernels with known answers. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

(* Diamond: BB0 -> {BB1, BB2} -> BB3. *)
let diamond () =
  let b = B.create "diamond" in
  let p = B.op0 b Op.Mov () in
  let else_l = B.new_label b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:else_l (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  ignore (B.op0 b Op.Mov ());
  B.jump b join;
  B.start_block b else_l;
  ignore (B.op0 b Op.Mov ());
  B.start_block b join;
  B.ret b;
  B.finalize b

(* Loop: BB0 -> BB1 (head) -> BB1 | BB2. *)
let loop_kernel () =
  let b = B.create "loop" in
  let x = B.op0 b Op.Mov () in
  let head = B.here b in
  let y = B.op1 b Op.Mov x in
  let p = B.op1 b Op.Setp y in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop 3);
  let (_ : B.label) = B.here b in
  B.ret b;
  B.finalize b

let test_cfg_diamond () =
  let k = diamond () in
  let cfg = Analysis.Cfg.of_kernel k in
  check Alcotest.(list int) "bb0 succs" [ 2; 1 ] cfg.Analysis.Cfg.succs.(0);
  check Alcotest.(list int) "bb1 succs" [ 3 ] cfg.Analysis.Cfg.succs.(1);
  check Alcotest.(list int) "bb2 succs" [ 3 ] cfg.Analysis.Cfg.succs.(2);
  check Alcotest.(list int) "bb3 preds sorted" [ 1; 2 ]
    (List.sort compare cfg.Analysis.Cfg.preds.(3));
  check
    Alcotest.(array bool)
    "no backward targets" [| false; false; false; false |]
    (Analysis.Cfg.backward_targets cfg)

let test_cfg_loop_backedge () =
  let k = loop_kernel () in
  let cfg = Analysis.Cfg.of_kernel k in
  let targets = Analysis.Cfg.backward_targets cfg in
  check Alcotest.(array bool) "backedge" [| false; true; false |] targets;
  check Alcotest.bool "bb1 is backward target" true targets.(1);
  check Alcotest.bool "bb0 is not" false targets.(0)

let test_cfg_reachable_rpo () =
  let k = diamond () in
  let cfg = Analysis.Cfg.of_kernel k in
  let reach = cfg.Analysis.Cfg.rpo_index in
  check Alcotest.bool "all reachable" true (Array.for_all (fun i -> i >= 0) reach);
  let rpo = cfg.Analysis.Cfg.rpo in
  check Alcotest.int "rpo covers all" 4 (Array.length rpo);
  check Alcotest.int "entry first" 0 rpo.(0);
  (* The branch lists its target (bb2) first, so bb2 finishes before bb1. *)
  check Alcotest.(array int) "entry, arms, join last" [| 0; 1; 2; 3 |] rpo

let test_dominance_diamond () =
  let k = diamond () in
  let cfg = Analysis.Cfg.of_kernel k in
  let dom = Analysis.Dominance.compute cfg in
  check (Alcotest.option Alcotest.int) "idom bb1" (Some 0) (Analysis.Dominance.idom dom 1);
  check (Alcotest.option Alcotest.int) "idom bb2" (Some 0) (Analysis.Dominance.idom dom 2);
  check (Alcotest.option Alcotest.int) "idom bb3" (Some 0) (Analysis.Dominance.idom dom 3);
  check (Alcotest.option Alcotest.int) "entry has none" None (Analysis.Dominance.idom dom 0);
  check Alcotest.bool "0 dom 3" true (Analysis.Dominance.dominates dom 0 3);
  check Alcotest.bool "1 not dom 3" false (Analysis.Dominance.dominates dom 1 3);
  check Alcotest.bool "reflexive" true (Analysis.Dominance.dominates dom 2 2)

let test_dominance_loop () =
  let k = loop_kernel () in
  let cfg = Analysis.Cfg.of_kernel k in
  let dom = Analysis.Dominance.compute cfg in
  check Alcotest.bool "head dominates exit" true (Analysis.Dominance.dominates dom 1 2);
  check Alcotest.bool "entry dominates head" true (Analysis.Dominance.dominates dom 0 1)

let test_instr_dominates () =
  let k = diamond () in
  let cfg = Analysis.Cfg.of_kernel k in
  let dom = Analysis.Dominance.compute cfg in
  (* instr 0 (mov) and instr 1 (bra) are in block 0; instr 2 in bb1. *)
  check Alcotest.bool "same block order" true (Analysis.Dominance.instr_dominates k dom 0 1);
  check Alcotest.bool "same block reverse" false (Analysis.Dominance.instr_dominates k dom 1 0);
  check Alcotest.bool "bb0 dominates bb1 instr" true (Analysis.Dominance.instr_dominates k dom 0 2)

(* Each instruction's live-after registers, ascending, as
   [iter_live_after] streams them. *)
let live_after k =
  let cfg = Analysis.Cfg.of_kernel k in
  let after = Array.make (Ir.Kernel.instr_count k) [] in
  Analysis.Liveness.iter_live_after (Analysis.Liveness.compute k cfg) (fun i live ->
      after.(i.Ir.Instr.id) <- Helpers.bitset_members live);
  after

let test_liveness_straight_line () =
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op1 b Op.Mov x in
  let z = B.op2 b Op.Iadd x y in
  B.store b Op.St_global ~addr:z ~value:z;
  let k = B.finalize b in
  let after = live_after k in
  (* After the store (instr 3), nothing is live. *)
  check Alcotest.bool "z dead at end" false (List.mem z after.(3));
  (* After instr 1 (y's def), both x and y are live (z's add reads both). *)
  check Alcotest.bool "x live after 1" true (List.mem x after.(1));
  check Alcotest.bool "y live after 1" true (List.mem y after.(1));
  (* After instr 2, x and y are dead, z live. *)
  check Alcotest.bool "x dead after 2" false (List.mem x after.(2));
  check Alcotest.bool "z live after 2" true (List.mem z after.(2))

let test_liveness_loop_carried () =
  let b = B.create "t" in
  let acc = B.op0 b Op.Mov () in
  let head = B.here b in
  B.op2_into b Op.Iadd ~dst:acc acc acc;
  let p = B.op1 b Op.Setp acc in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop 2);
  let (_ : B.label) = B.here b in
  B.store b Op.St_global ~addr:acc ~value:acc;
  let k = B.finalize b in
  let after = live_after k in
  let last (blk : Ir.Block.t) =
    blk.Ir.Block.instrs.(Array.length blk.Ir.Block.instrs - 1).Ir.Instr.id
  in
  let entry_end = last k.Ir.Kernel.blocks.(0) and head_end = last k.Ir.Kernel.blocks.(1) in
  (* acc is live around the loop: into the head (block 0 only falls
     into it) and out of it, and at every point of the head. *)
  check Alcotest.bool "acc live into head" true (List.mem acc after.(entry_end));
  check Alcotest.bool "acc live out of head" true (List.mem acc after.(head_end));
  Array.iter
    (fun (i : Ir.Instr.t) ->
      check Alcotest.bool "acc live through the head" true (List.mem acc after.(i.Ir.Instr.id)))
    k.Ir.Kernel.blocks.(1).Ir.Block.instrs;
  check Alcotest.(list int) "only acc leaves the head" [ acc ] after.(head_end)

let test_reaching_multi_def () =
  (* Hammock writing r on both sides; the join read is reached by both. *)
  let b = B.create "t" in
  let p = B.op0 b Op.Mov () in
  let r = B.op0 b Op.Mov () in
  let else_l = B.new_label b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:else_l (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  B.op1_into b Op.Mov ~dst:r p;
  B.jump b join;
  B.start_block b else_l;
  B.op1_into b Op.Mov ~dst:r r;
  B.start_block b join;
  B.store b Op.St_global ~addr:r ~value:r;
  let k = B.finalize b in
  let cfg = Analysis.Cfg.of_kernel k in
  let reach = Analysis.Reaching.compute k cfg (Analysis.Dominance.compute cfg) in
  (* The store is the last instruction. *)
  let store_id = Ir.Kernel.instr_count k - 1 in
  List.iter
    (fun slot ->
      check Alcotest.int "two reaching defs" 2
        (Analysis.Reaching.num_reaching reach ~instr_id:store_id ~slot);
      (* Ascending: the then-branch's def (bb1), then the else-branch's
         (bb2); the first def of r is killed on both paths. *)
      check Alcotest.(list int) "one def from each side" [ 1; 2 ]
        (List.init 2 (fun n ->
             Ir.Kernel.block_of k (Analysis.Reaching.nth_reaching reach ~instr_id:store_id ~slot n))))
    [ 0; 1 ]

let test_reaching_input () =
  let b = B.create "t" in
  let input = B.fresh b in
  let x = B.op1 b Op.Mov input in
  B.store b Op.St_global ~addr:x ~value:x;
  let k = B.finalize b in
  let cfg = Analysis.Cfg.of_kernel k in
  let reach = Analysis.Reaching.compute k cfg (Analysis.Dominance.compute cfg) in
  check Alcotest.int "input has no defs" 0
    (Analysis.Reaching.num_reaching reach ~instr_id:0 ~slot:0);
  check Alcotest.int "x's def reaches the store" 1
    (Analysis.Reaching.num_reaching reach ~instr_id:1 ~slot:0)

let test_duchain_instances () =
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op1 b Op.Mov x in
  let z = B.op2 b Op.Iadd x y in
  B.store b Op.St_global ~addr:z ~value:x;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let du = ctx.Alloc.Context.duchain in
  check Alcotest.int "x read 3 times" 3 (Analysis.Duchain.num_reads du 0);
  check Alcotest.int "z read once" 1 (Analysis.Duchain.num_reads du 2);
  check Alcotest.int "z read at store slot 0"
    (Analysis.Duchain.operand ~instr_id:3 ~slot:0)
    (Analysis.Duchain.read_operand du 2 0);
  (* No read of x is reached by another def, so its group is itself. *)
  check Alcotest.int "x not merged" 1
    (Analysis.Duchain.group_size du (Analysis.Duchain.group_of du 0))

let test_duchain_merged_group () =
  (* Both hammock sides write r; the join read merges the defs. *)
  let b = B.create "t" in
  let p = B.op0 b Op.Mov () in
  let r = B.op0 b Op.Mov () in
  let else_l = B.new_label b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:else_l (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  B.op1_into b Op.Mov ~dst:r p;
  B.jump b join;
  B.start_block b else_l;
  B.op1_into b Op.Mov ~dst:r p;
  B.start_block b join;
  B.store b Op.St_global ~addr:r ~value:p;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let du = ctx.Alloc.Context.duchain in
  (* The defs of r: the initial mov, then the two hammock sides. *)
  let r_defs =
    List.filter
      (fun id -> (Ir.Kernel.instr k id).Ir.Instr.dst = Some r)
      (List.init (Ir.Kernel.instr_count k) Fun.id)
  in
  let group_sizes =
    List.map (fun d -> Analysis.Duchain.group_size du (Analysis.Duchain.group_of du d)) r_defs
  in
  (* The initial mov of r is killed on both paths; the two hammock defs
     must share one group of size >= 2. *)
  check Alcotest.bool "merged group exists" true (List.exists (fun n -> n >= 2) group_sizes);
  let sides = List.tl r_defs in
  let g = Analysis.Duchain.group_of du (List.hd sides) in
  check Alcotest.(list int) "its members are the hammock defs, in layout order" sides
    (List.init (Analysis.Duchain.group_size du g) (Analysis.Duchain.group_member du g))

let test_duchain_inputs () =
  let b = B.create "t" in
  let input = B.fresh b in
  ignore (B.op2 b Op.Iadd input input);
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let du = ctx.Alloc.Context.duchain in
  (* The add is the only def, and nothing reads it: the input's two
     reads belong to no instance and are served from the MRF. *)
  check Alcotest.bool "the add is the one def" true
    (Analysis.Duchain.is_def du 0 && Analysis.Duchain.num_reads du 0 = 0);
  check Alcotest.(list int) "no def reaches either read of the input" [ 0; 0 ]
    (List.init 2 (fun slot ->
         Analysis.Reaching.num_reaching ctx.Alloc.Context.reaching ~instr_id:0 ~slot))

let test_pressure () =
  (* x and y live together across the add; peak = 2. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op0 b Op.Mov () in
  let z = B.op2 b Op.Iadd x y in
  B.store b Op.St_global ~addr:z ~value:z;
  let k = B.finalize b in
  let p = Analysis.Pressure.compute k (Analysis.Cfg.of_kernel k) in
  check Alcotest.int "3 registers" 3 p.Analysis.Pressure.registers_used;
  check Alcotest.int "peak live 2" 2 p.Analysis.Pressure.max_live

let test_resident_warps () =
  (* Table 2's machine: 32 regs/thread -> 32 warps in 128 KB. *)
  check Alcotest.int "32 regs" 32 (Analysis.Pressure.resident_warps 32);
  check Alcotest.int "64 regs halves warps" 16 (Analysis.Pressure.resident_warps 64);
  check Alcotest.bool "zero regs unbounded" true (Analysis.Pressure.resident_warps 0 > 1000)

let suite =
  [
    Alcotest.test_case "pressure" `Quick test_pressure;
    Alcotest.test_case "resident warps" `Quick test_resident_warps;
    Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "cfg loop backedge" `Quick test_cfg_loop_backedge;
    Alcotest.test_case "cfg reachable/rpo" `Quick test_cfg_reachable_rpo;
    Alcotest.test_case "dominance diamond" `Quick test_dominance_diamond;
    Alcotest.test_case "dominance loop" `Quick test_dominance_loop;
    Alcotest.test_case "instr dominates" `Quick test_instr_dominates;
    Alcotest.test_case "liveness straight line" `Quick test_liveness_straight_line;
    Alcotest.test_case "liveness loop carried" `Quick test_liveness_loop_carried;
    Alcotest.test_case "reaching multi def" `Quick test_reaching_multi_def;
    Alcotest.test_case "reaching input" `Quick test_reaching_input;
    Alcotest.test_case "duchain instances" `Quick test_duchain_instances;
    Alcotest.test_case "duchain merged group" `Quick test_duchain_merged_group;
    Alcotest.test_case "duchain inputs" `Quick test_duchain_inputs;
  ]
