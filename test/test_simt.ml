(* SIMT divergence executor and post-dominance tests. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

let diamond () =
  let b = B.create "diamond" in
  let p = B.op0 b Op.Mov () in
  let else_l = B.new_label b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:else_l (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  ignore (B.op1 b Op.Mov p);
  B.jump b join;
  B.start_block b else_l;
  ignore (B.op1 b Op.Mov p);
  B.start_block b join;
  ignore (B.op1 b Op.Mov p);
  B.finalize b

let test_postdom_diamond () =
  let k = diamond () in
  let cfg = Analysis.Cfg.of_kernel k in
  let pd = Analysis.Postdom.compute k cfg in
  (* The join (block 3) post-dominates everything. *)
  check (Alcotest.option Alcotest.int) "ipdom of branch block" (Some 3)
    (Analysis.Postdom.ipdom pd 0);
  check (Alcotest.option Alcotest.int) "ipdom of then" (Some 3) (Analysis.Postdom.ipdom pd 1);
  check (Alcotest.option Alcotest.int) "ipdom of else" (Some 3) (Analysis.Postdom.ipdom pd 2);
  (* The exit block post-dominates directly into the virtual exit. *)
  check (Alcotest.option Alcotest.int) "exit has no ipdom block" None
    (Analysis.Postdom.ipdom pd 3)

let count_instrs k ~warp ~seed =
  let n = ref 0 and threads = ref 0 in
  let stats =
    Sim.Simt.run_warp k ~warp ~seed ~on_instr:(fun _ ~active ~clusters:_ ->
        incr n;
        threads := !threads + active)
  in
  check Alcotest.int "callback count matches" !n stats.Sim.Simt.warp_instructions;
  check Alcotest.int "thread count matches" !threads stats.Sim.Simt.thread_instructions;
  stats

let test_simt_uniform_kernel () =
  (* A straight-line kernel never diverges: efficiency 1. *)
  let b = B.create "s" in
  let x = B.op0 b Op.Mov () in
  ignore (B.op1 b Op.Mov x);
  let k = B.finalize b in
  let stats = count_instrs k ~warp:0 ~seed:1 in
  check (Alcotest.float 1e-9) "full efficiency" 1.0 stats.Sim.Simt.simd_efficiency;
  check Alcotest.int "no divergence" 0 stats.Sim.Simt.divergent_branches;
  check Alcotest.int "2 instructions" 2 stats.Sim.Simt.warp_instructions

let test_simt_divergent_diamond () =
  let k = diamond () in
  let stats = count_instrs k ~warp:0 ~seed:42 in
  (* With p = 0.5 over 32 threads the branch almost surely splits. *)
  check Alcotest.int "one divergent branch" 1 stats.Sim.Simt.divergent_branches;
  (* Both sides execute under partial masks: efficiency drops below 1
     but stays above 1/2 + overhead bound. *)
  check Alcotest.bool "efficiency in (0.5, 1)" true
    (stats.Sim.Simt.simd_efficiency > 0.5 && stats.Sim.Simt.simd_efficiency < 1.0);
  (* Dynamic warp instructions: mov p + bra + then mov + else mov +
     join mov = 5 (both sides execute). *)
  check Alcotest.int "5 warp instructions" 5 stats.Sim.Simt.warp_instructions;
  check Alcotest.bool "stack depth grew" true (stats.Sim.Simt.max_stack_depth >= 3)

let test_simt_reconvergence () =
  (* After the hammock, the join executes with the full mask again:
     total thread-instructions = bra(32) + then(t) + else(32-t) + join(32). *)
  let k = diamond () in
  let joins = ref [] in
  ignore
    (Sim.Simt.run_warp k ~warp:0 ~seed:42 ~on_instr:(fun i ~active ~clusters:_ ->
         if Ir.Kernel.block_of k i.Ir.Instr.id = 3 then joins := active :: !joins));
  check Alcotest.(list int) "join at full mask" [ 32 ] !joins

let test_simt_loop_uniform () =
  let b = B.create "loop" in
  let x = B.op0 b Op.Mov () in
  let head = B.here b in
  B.op2_into b Op.Iadd ~dst:x x x;
  let p = B.op1 b Op.Setp x in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop 5);
  let (_ : B.label) = B.here b in
  B.store b Op.St_global ~addr:x ~value:x;
  let k = B.finalize b in
  let stats = count_instrs k ~warp:0 ~seed:1 in
  check Alcotest.int "no divergence on counted loops" 0 stats.Sim.Simt.divergent_branches;
  (* Same dynamic count as the warp-uniform walker. *)
  check Alcotest.int "matches Cf stream length"
    (List.length (fst (Helpers.cf_stream k ~warp:0 ~seed:1)))
    stats.Sim.Simt.warp_instructions

let test_simt_clusters () =
  (* clusters_of is exposed indirectly: a fully active warp reports 8
     clusters per operand in the traffic weighting. *)
  let b = B.create "s" in
  let x = B.op0 b Op.Mov () in
  ignore (B.op1 b Op.Mov x);
  let k = B.finalize b in
  let max_clusters = ref 0 in
  ignore
    (Sim.Simt.run_warp k ~warp:0 ~seed:1 ~on_instr:(fun _ ~active:_ ~clusters ->
         max_clusters := max !max_clusters clusters));
  check Alcotest.int "8 clusters when uniform" 8 !max_clusters

let test_simt_traffic_savings_hold () =
  (* Divergence-aware accounting preserves the SW advantage. *)
  let e = Option.get (Workloads.Registry.find "Mandelbrot") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config ctx in
  let r = Sim.Simt.traffic ~warps:4 ctx in
  let energy p =
    let c = Sim.Traffic.price ctx p r.Sim.Simt.clusters in
    (Energy.Counts.energy Energy.Params.default ~orf_entries:3 c).Energy.Counts.total
  in
  check Alcotest.bool "diverged somewhere" true (r.Sim.Simt.stats.Sim.Simt.divergent_branches > 0);
  check Alcotest.bool "SW still saves energy" true
    (energy placement < energy (Alloc.Placement.baseline ctx.Alloc.Context.kernel));
  check Alcotest.bool "efficiency below 1 under divergence" true
    (r.Sim.Simt.stats.Sim.Simt.simd_efficiency < 1.0)

let test_simt_deterministic () =
  let k = diamond () in
  let s1 = count_instrs k ~warp:3 ~seed:11 in
  let s2 = count_instrs k ~warp:3 ~seed:11 in
  check Alcotest.int "same stream" s1.Sim.Simt.thread_instructions s2.Sim.Simt.thread_instructions

let suite =
  [
    Alcotest.test_case "postdom diamond" `Quick test_postdom_diamond;
    Alcotest.test_case "uniform kernel" `Quick test_simt_uniform_kernel;
    Alcotest.test_case "divergent diamond" `Quick test_simt_divergent_diamond;
    Alcotest.test_case "reconvergence at ipdom" `Quick test_simt_reconvergence;
    Alcotest.test_case "counted loop uniform" `Quick test_simt_loop_uniform;
    Alcotest.test_case "cluster weighting" `Quick test_simt_clusters;
    Alcotest.test_case "divergent traffic savings" `Quick test_simt_traffic_savings_hold;
    Alcotest.test_case "deterministic" `Quick test_simt_deterministic;
  ]
