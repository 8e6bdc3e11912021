(* Strand partitioning tests, including the paper's Figure 5 examples
   and the must-defined analysis behind Figure 10. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

let partition_of k = (Alloc.Context.create k).Alloc.Context.partition

(* Straight line with a load and its consumer: the consumer must begin
   a new strand (Fig. 5(a)'s Strand 1 / Strand 2 split). *)
let test_long_latency_boundary () =
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let x = B.op1 b Op.Ld_global a in
  let y = B.op2 b Op.Iadd a a in
  let z = B.op2 b Op.Fadd x y in
  B.store b Op.St_global ~addr:a ~value:z;
  let k = B.finalize b in
  let p = partition_of k in
  check Alcotest.int "two strands" 2 (Strand.Partition.num_strands p);
  (* Instr 3 (the fadd consuming the load) starts the second strand;
     the independent add (instr 2) stays in the first. *)
  check Alcotest.int "independent add in strand 0" 0 (Strand.Partition.strand_of_instr p 2);
  check Alcotest.bool "consumer starts strand" true (Strand.Partition.starts_strand p 3);
  check Alcotest.int "consumer strand 1" 1 (Strand.Partition.strand_of_instr p 3)

(* A shared-memory load is short-latency: no boundary. *)
let test_short_latency_no_boundary () =
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let x = B.op1 b Op.Ld_shared a in
  let z = B.op2 b Op.Fadd x a in
  B.store b Op.St_shared ~addr:a ~value:z;
  let k = B.finalize b in
  check Alcotest.int "one strand" 1 (Strand.Partition.num_strands (partition_of k))

(* Backward branches end strands even without long-latency ops. *)
let test_backward_branch_boundary () =
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let head = B.here b in
  B.op2_into b Op.Iadd ~dst:x x x;
  let p = B.op1 b Op.Setp x in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop 2);
  let (_ : B.label) = B.here b in
  B.store b Op.St_global ~addr:x ~value:x;
  let k = B.finalize b in
  let part = partition_of k in
  (* preamble / loop body / exit *)
  check Alcotest.int "three strands" 3 (Strand.Partition.num_strands part);
  let body_first = k.Ir.Kernel.blocks.(1).Ir.Block.instrs.(0).Ir.Instr.id in
  check Alcotest.bool "loop head starts strand" true (Strand.Partition.starts_strand part body_first)

(* Fig. 5(b): a load on only one side of a hammock makes the pending set
   uncertain at the merge -> an extra strand endpoint there. *)
let test_merge_uncertainty () =
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let p = B.op1 b Op.Setp a in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:join (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  let loaded = B.op1 b Op.Ld_global a in
  ignore loaded;  (* pending at the block's end: not consumed here *)
  B.store b Op.St_shared ~addr:a ~value:a;
  B.start_block b join;
  let tail = B.op2 b Op.Iadd a a in
  B.store b Op.St_global ~addr:a ~value:tail;
  let k = B.finalize b in
  let part = partition_of k in
  let join_first = k.Ir.Kernel.blocks.(2).Ir.Block.instrs.(0).Ir.Instr.id in
  check Alcotest.bool "merge starts strand" true (Strand.Partition.starts_strand part join_first)

(* Merge with the load on BOTH sides: pending sets still differ (each
   side has a distinct definition site), so the endpoint stays. *)
let test_merge_certain_when_no_pending () =
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let p = B.op1 b Op.Setp a in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:join (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  ignore (B.op2 b Op.Iadd a a);
  B.start_block b join;
  ignore (B.op2 b Op.Iadd a a);
  let k = B.finalize b in
  let part = partition_of k in
  (* No long-latency operations anywhere: a single strand. *)
  check Alcotest.int "one strand" 1 (Strand.Partition.num_strands part)

let test_strand_intervals_partition () =
  let e = Option.get (Workloads.Registry.find "MatrixMul") in
  let k = Lazy.force e.Workloads.Registry.kernel in
  let part = partition_of k in
  let n = Strand.Partition.num_strands part in
  (* Intervals tile the instruction space in order: each strand begins
     at a marked start, right after the previous one ends. *)
  let current = ref (-1) in
  for id = 0 to Ir.Kernel.instr_count k - 1 do
    if Strand.Partition.starts_strand part id then incr current;
    check Alcotest.int "membership" !current (Strand.Partition.strand_of_instr part id)
  done;
  check Alcotest.bool "starts_strand at the first instr" true
    (Strand.Partition.starts_strand part 0);
  check Alcotest.int "covers all strands" n (!current + 1)

let test_boundary_kinds_relaxations () =
  let e = Option.get (Workloads.Registry.find "Reduction") in
  let k = Lazy.force e.Workloads.Registry.kernel in
  let cfg = Analysis.Cfg.of_kernel k in
  let reaching = Analysis.Reaching.compute k cfg (Analysis.Dominance.compute cfg) in
  let full = Strand.Partition.compute k cfg reaching in
  let none =
    Strand.Partition.compute
      ~kinds:{ Strand.Partition.long_latency = false; backward = false; merge = false }
      k cfg reaching
  in
  let no_backward =
    Strand.Partition.compute
      ~kinds:{ Strand.Partition.long_latency = true; backward = false; merge = true }
      k cfg reaching
  in
  check Alcotest.int "no boundaries = one strand" 1 (Strand.Partition.num_strands none);
  check Alcotest.bool "relaxing reduces strands" true
    (Strand.Partition.num_strands no_backward <= Strand.Partition.num_strands full);
  check Alcotest.bool "full has several" true (Strand.Partition.num_strands full > 2)

(* Fig. 10 via must-defined: (a) one-sided write is not must-defined at
   the join; (c) both-sided write is. *)
let fig10_kernel ~both_sides =
  let b = B.create "fig10" in
  let p = B.op0 b Op.Mov () in
  let r1 = B.fresh b in
  (* r1 models a value written by a previous strand (Fig. 10 reads it
     from the MRF); keep everything here short-latency. *)
  let else_l = B.new_label b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:else_l (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  B.op1_into b Op.Mov ~dst:r1 p;
  B.jump b join;
  B.start_block b else_l;
  if both_sides then B.op1_into b Op.Mov ~dst:r1 p
  else ignore (B.op1 b Op.Mov p);
  B.start_block b join;
  B.store b Op.St_shared ~addr:p ~value:r1;
  (B.finalize b, r1)

let test_must_defined_fig10a () =
  let k, r1 = fig10_kernel ~both_sides:false in
  let ctx = Alloc.Context.create k in
  let store_id = Ir.Kernel.instr_count k - 1 in
  check Alcotest.bool "one-sided: not must-defined" false
    (Strand.Must_defined.must_defined_before ctx.Alloc.Context.must_defined ~instr_id:store_id r1)

let test_must_defined_fig10c () =
  let k, r1 = fig10_kernel ~both_sides:true in
  let ctx = Alloc.Context.create k in
  let store_id = Ir.Kernel.instr_count k - 1 in
  check Alcotest.bool "both-sided: must-defined" true
    (Strand.Must_defined.must_defined_before ctx.Alloc.Context.must_defined ~instr_id:store_id r1)

let test_must_defined_resets_at_boundary () =
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let v = B.op2 b Op.Iadd a a in
  let x = B.op1 b Op.Ld_global a in
  let consumer = B.op2 b Op.Fadd x v in
  B.store b Op.St_global ~addr:a ~value:consumer;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let md = ctx.Alloc.Context.must_defined in
  (* v is must-defined just before the load (same strand)... *)
  check Alcotest.bool "before boundary" true
    (Strand.Must_defined.must_defined_before md ~instr_id:2 v);
  (* ...but not at the consumer, which starts a new strand. *)
  check Alcotest.bool "after boundary" false
    (Strand.Must_defined.must_defined_before md ~instr_id:3 v)

let suite =
  [
    Alcotest.test_case "long-latency boundary" `Quick test_long_latency_boundary;
    Alcotest.test_case "short-latency no boundary" `Quick test_short_latency_no_boundary;
    Alcotest.test_case "backward-branch boundary" `Quick test_backward_branch_boundary;
    Alcotest.test_case "merge uncertainty (Fig 5b)" `Quick test_merge_uncertainty;
    Alcotest.test_case "no-pending merge" `Quick test_merge_certain_when_no_pending;
    Alcotest.test_case "intervals partition" `Quick test_strand_intervals_partition;
    Alcotest.test_case "boundary-kind relaxations" `Quick test_boundary_kinds_relaxations;
    Alcotest.test_case "must-defined Fig 10(a)" `Quick test_must_defined_fig10a;
    Alcotest.test_case "must-defined Fig 10(c)" `Quick test_must_defined_fig10c;
    Alcotest.test_case "must-defined resets at boundary" `Quick test_must_defined_resets_at_boundary;
  ]
