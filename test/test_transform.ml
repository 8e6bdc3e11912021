(* Tests for the code-motion passes: dependence graphs, rescheduling
   and loop unrolling. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

let block_of_kernel (k : Ir.Kernel.t) i = k.Ir.Kernel.blocks.(i)

let test_depgraph_edges () =
  (* 0: x = mov; 1: y = add x x; 2: x = mov (WAR on 1, WAW on 0);
     3: st x y (RAW on 2 and 1). *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op2 b Op.Iadd x x in
  B.op0_into b Op.Mov ~dst:x ();
  B.store b Op.St_global ~addr:x ~value:y;
  let k = B.finalize b in
  let g = Transform.Depgraph.build (block_of_kernel k 0) in
  check Alcotest.(list int) "RAW: add depends on def" [ 0 ] (Transform.Depgraph.preds g 1);
  check Alcotest.(list int) "WAR+WAW: redef after reader and def" [ 0; 1 ]
    (Transform.Depgraph.preds g 2);
  check Alcotest.(list int) "store reads both" [ 1; 2 ] (Transform.Depgraph.preds g 3)

let test_depgraph_memory_barrier () =
  (* Loads may pass loads but not stores. *)
  let b = B.create "t" in
  let a = B.fresh b in
  let l1 = B.op1 b Op.Ld_shared a in
  B.store b Op.St_shared ~addr:a ~value:l1;
  let l2 = B.op1 b Op.Ld_shared a in
  ignore l2;
  let k = B.finalize b in
  let g = Transform.Depgraph.build (block_of_kernel k 0) in
  (* The second load depends on the store (index 1). *)
  check Alcotest.bool "load ordered after store" true
    (List.mem 1 (Transform.Depgraph.preds g 2))

let test_depgraph_loads_reorder () =
  let b = B.create "t" in
  let a = B.fresh b in
  ignore (B.op1 b Op.Ld_shared a);
  ignore (B.op1 b Op.Ld_shared a);
  let k = B.finalize b in
  let g = Transform.Depgraph.build (block_of_kernel k 0) in
  check Alcotest.(list int) "no load-load edge" [] (Transform.Depgraph.preds g 1)

let test_reschedule_topological () =
  (* Every schedule respects the dependence graph (random kernels). *)
  for seed = 0 to 30 do
    let k = Workloads.Generator.kernel ~size:6 ~seed () in
    Array.iter
      (fun (blk : Ir.Block.t) ->
        let g = Transform.Depgraph.build blk in
        List.iter
          (fun hoist ->
            let order = Transform.Reschedule.block ~hoist_loads:hoist blk in
            if not (Transform.Depgraph.respects g ~order) then
              Alcotest.failf "seed %d block %d: schedule violates dependences" seed
                blk.Ir.Block.label)
          [ true; false ])
      k.Ir.Kernel.blocks
  done

let test_reschedule_bra_stays_last () =
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let head = B.here b in
  let v = B.op2 b Op.Iadd x x in
  ignore (B.op1 b Op.Ld_global v);
  let p = B.op1 b Op.Setp x in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop 2);
  let (_ : B.label) = B.here b in
  B.ret b;
  let k = B.finalize b in
  let k' = Transform.Reschedule.kernel k in
  Array.iter
    (fun (blk : Ir.Block.t) ->
      match blk.Ir.Block.term with
      | Ir.Terminator.Branch _ ->
        let n = Array.length blk.Ir.Block.instrs in
        check Alcotest.bool "bra last" true ((blk.Ir.Block.instrs.(n - 1)).Ir.Instr.op = Op.Bra)
      | _ -> ())
    k'.Ir.Kernel.blocks

let test_reschedule_hoists_loads () =
  (* ALU work before a load with no dependence: hoisting brings the
     load (and its address) to the front. *)
  let b = B.create "t" in
  let a = B.fresh b in
  let t1 = B.op2 b Op.Fadd a a in
  let t2 = B.op2 b Op.Fmul t1 t1 in
  let x = B.op1 b Op.Ld_global a in
  B.store b Op.St_global ~addr:t2 ~value:x;
  let k = B.finalize b in
  let order = Transform.Reschedule.block ~hoist_loads:true (block_of_kernel k 0) in
  check Alcotest.int "load scheduled first" 2 order.(0)

let test_reschedule_packs_chains () =
  (* Two independent chains interleaved: chain packing groups them. *)
  let b = B.create "t" in
  let a = B.fresh b in
  let a1 = B.op1 b Op.Mov a in
  let b1 = B.op1 b Op.Cvt a in
  let a2 = B.op1 b Op.Mov a1 in
  let b2 = B.op1 b Op.Cvt b1 in
  B.store b Op.St_global ~addr:a2 ~value:b2;
  let k = B.finalize b in
  let order = Transform.Reschedule.block ~hoist_loads:false (block_of_kernel k 0) in
  let pos = Array.make 5 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  (* Each consumer directly follows its producer. *)
  check Alcotest.bool "a-chain adjacent" true (abs (pos.(2) - pos.(0)) = 1 || abs (pos.(2) - pos.(0)) = 2);
  check Alcotest.bool "b-chain adjacent" true (abs (pos.(3) - pos.(1)) <= 2)

let test_unroll_candidates () =
  let k = Workloads.Micro.loop_carried 8 in
  match Transform.Unroll.candidates k with
  | [ (_, 8) ] -> ()
  | other -> Alcotest.failf "expected one 8-trip candidate, got %d" (List.length other)

let test_unroll_preserves_work () =
  (* The unrolled loop performs the same productive work: identical
     dynamic store count and identical non-control work, with fewer
     exit tests. *)
  let k = Workloads.Micro.loop_carried 8 in
  let k4 = Transform.Unroll.kernel ~factor:4 k in
  let count pred kernel =
    List.length
      (List.filter
         (fun id -> pred (Ir.Kernel.instr kernel id))
         (fst (Helpers.cf_stream kernel ~warp:0 ~seed:1)))
  in
  let is_work (i : Ir.Instr.t) =
    match i.Ir.Instr.op with Op.Bra | Op.Setp -> false | _ -> true
  in
  check Alcotest.int "same productive instructions" (count is_work k) (count is_work k4);
  check Alcotest.bool "fewer exit tests" true
    (count (fun i -> i.Ir.Instr.op = Op.Bra) k4 < count (fun i -> i.Ir.Instr.op = Op.Bra) k)

let test_unroll_non_dividing_factor () =
  let k = Workloads.Micro.loop_carried 8 in
  let k3 = Transform.Unroll.kernel ~factor:3 k in
  (* 3 does not divide 8: structure unchanged. *)
  check Alcotest.int "same instrs" (Ir.Kernel.instr_count k) (Ir.Kernel.instr_count k3)

let test_unroll_invalid_factor () =
  Alcotest.check_raises "factor 0" (Invalid_argument "Unroll.kernel: factor < 1") (fun () ->
      ignore (Transform.Unroll.kernel ~factor:0 (Workloads.Micro.loop_carried 8)))

let test_transformed_kernels_still_verify () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let k = Lazy.force e.Workloads.Registry.kernel in
      List.iter
        (fun kernel ->
          let ctx = Alloc.Context.create kernel in
          let config = Alloc.Config.make () in
          let placement = Alloc.Allocator.place config ctx in
          match Alloc.Verify.check config ctx placement with
          | Ok () -> ()
          | Error errs ->
            Alcotest.failf "%s (%s): %s" e.Workloads.Registry.name kernel.Ir.Kernel.name
              (String.concat "; " errs))
        [ Transform.Reschedule.kernel k; Transform.Unroll.kernel ~factor:4 k;
          Transform.Reschedule.kernel (Transform.Unroll.kernel ~factor:4 k) ])
    (Workloads.Registry.all ())

let suite =
  [
    Alcotest.test_case "depgraph edges" `Quick test_depgraph_edges;
    Alcotest.test_case "depgraph memory barrier" `Quick test_depgraph_memory_barrier;
    Alcotest.test_case "depgraph loads reorder" `Quick test_depgraph_loads_reorder;
    Alcotest.test_case "reschedule topological" `Quick test_reschedule_topological;
    Alcotest.test_case "reschedule bra last" `Quick test_reschedule_bra_stays_last;
    Alcotest.test_case "reschedule hoists loads" `Quick test_reschedule_hoists_loads;
    Alcotest.test_case "reschedule packs chains" `Quick test_reschedule_packs_chains;
    Alcotest.test_case "unroll candidates" `Quick test_unroll_candidates;
    Alcotest.test_case "unroll preserves work" `Quick test_unroll_preserves_work;
    Alcotest.test_case "unroll non-dividing" `Quick test_unroll_non_dividing_factor;
    Alcotest.test_case "unroll invalid factor" `Quick test_unroll_invalid_factor;
    Alcotest.test_case "transformed kernels verify" `Quick test_transformed_kernels_still_verify;
  ]
