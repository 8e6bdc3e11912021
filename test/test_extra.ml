(* Cross-cutting tests filling remaining coverage gaps: HW ablation
   flags, SIMT warp sizing, assembly entry loops, the Rfh façade and
   sweep cache behaviour. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

(* A loop whose body loads and immediately consumes: deschedules every
   iteration under the HW policy. *)
let desched_kernel () =
  let b = B.create "t" in
  let a = B.fresh b in
  let head = B.here b in
  let x = B.op1 b Op.Ld_global a in
  let y = B.op2 b Op.Fadd x a in
  B.store b Op.St_shared ~addr:a ~value:y;
  let p = B.op1 b Op.Setp y in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop 6);
  let (_ : B.label) = B.here b in
  B.ret b;
  B.finalize b

let hw_counts ?(opts = Sim.Traffic.hw_defaults ~rfc_entries:3) k =
  let ctx = Alloc.Context.create k in
  Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Hw opts)

let test_hw_never_flush () =
  let k = desched_kernel () in
  let normal = hw_counts k in
  let never =
    hw_counts ~opts:{ (Sim.Traffic.hw_defaults ~rfc_entries:3) with Sim.Traffic.never_flush = true } k
  in
  (* Both deschedule, but never_flush skips the writeback traffic. *)
  check Alcotest.bool "both deschedule" true
    (normal.Sim.Traffic.desched_events > 0
     && normal.Sim.Traffic.desched_events = never.Sim.Traffic.desched_events);
  check Alcotest.bool "never_flush writes less MRF" true
    (Energy.Counts.writes never.Sim.Traffic.counts Energy.Model.Mrf
     <= Energy.Counts.writes normal.Sim.Traffic.counts Energy.Model.Mrf);
  check Alcotest.bool "never_flush reads RFC no less" true
    (Energy.Counts.reads never.Sim.Traffic.counts Energy.Model.Rfc
     >= Energy.Counts.reads normal.Sim.Traffic.counts Energy.Model.Rfc)

let test_hw_flush_on_backward () =
  let k = desched_kernel () in
  let normal = hw_counts k in
  let flushing =
    hw_counts
      ~opts:
        { (Sim.Traffic.hw_defaults ~rfc_entries:3) with
          Sim.Traffic.flush_on_backward_branch = true }
      k
  in
  check Alcotest.bool "backward flushes add MRF writes" true
    (Energy.Counts.writes flushing.Sim.Traffic.counts Energy.Model.Mrf
     >= Energy.Counts.writes normal.Sim.Traffic.counts Energy.Model.Mrf)

let test_simt_narrow_warp () =
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  ignore (B.op1 b Op.Mov x);
  let k = B.finalize b in
  let clusters = ref 0 in
  let stats =
    Sim.Simt.run_warp ~threads_per_warp:4 k ~warp:0 ~seed:1
      ~on_instr:(fun _ ~active ~clusters:c ->
        clusters := max !clusters c;
        check Alcotest.int "4 active threads" 4 active)
  in
  check Alcotest.int "one cluster for 4 threads" 1 !clusters;
  check (Alcotest.float 1e-9) "efficiency 1" 1.0 stats.Sim.Simt.simd_efficiency

let test_asm_entry_loop () =
  (* A backward branch to the entry label round-trips. *)
  let src =
    {|
top:
  add.s32 %x, %x, %x
  setp %p, %x
  br %p, top, loop=3
exit:
  ret
|}
  in
  let k = Ir.Asm.parse_exn ~name:"t" src in
  check Alcotest.int "two blocks" 2 (Ir.Kernel.block_count k);
  (match k.Ir.Kernel.blocks.(0).Ir.Block.term with
   | Ir.Terminator.Branch { target = 0; behavior = Ir.Terminator.Loop 3 } -> ()
   | _ -> Alcotest.fail "self-loop expected");
  (* And it executes the expected number of dynamic instructions. *)
  check Alcotest.int "3 trips x 3 instrs" 9
    (List.length (fst (Helpers.cf_stream k ~warp:0 ~seed:1)))

let test_facade () =
  let compiled = Rfh.compile (Rfh.benchmark "hotspot") in
  let m = Rfh.measure ~warps:4 compiled in
  check Alcotest.bool "saves energy" true (m.Rfh.savings_percent > 0.0);
  check Alcotest.bool "normalized < 1" true (m.Rfh.normalized_energy < 1.0);
  check (Alcotest.float 1e-6) "ratio consistency" m.Rfh.normalized_energy
    (m.Rfh.total_energy_pj /. m.Rfh.baseline_energy_pj);
  (try
     ignore (Rfh.benchmark "no-such-benchmark");
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

(* A kernel with no register traffic: no baseline energy, nothing
   saved. *)
let test_facade_empty_kernel () =
  let m = Rfh.measure ~warps:4 (Rfh.compile (Ir.Builder.finalize (Ir.Builder.create "empty"))) in
  check (Alcotest.float 0.0) "baseline energy" 0.0 m.Rfh.baseline_energy_pj;
  check (Alcotest.float 0.0) "normalized" 1.0 m.Rfh.normalized_energy;
  check (Alcotest.float 0.0) "savings" 0.0 m.Rfh.savings_percent

let test_sweep_cache_stability () =
  let opts =
    Experiments.Options.with_benchmarks
      { (Experiments.Options.default ()) with Experiments.Options.warps = 2 }
      [ "VectorAdd" ]
  in
  let e = List.hd opts.Experiments.Options.benchmarks in
  let before = Experiments.Sweep.energy_ratio opts e Experiments.Sweep.Sw_two ~entries:3 in
  Experiments.Sweep.clear_caches ();
  let after = Experiments.Sweep.energy_ratio opts e Experiments.Sweep.Sw_two ~entries:3 in
  check (Alcotest.float 1e-12) "cold = warm" before after

let test_mirror_config_disables_dead_elision () =
  (* Under mirror_mrf even ORF-allocated values write the MRF, so total
     MRF writes never drop below the baseline's. *)
  let k = Rfh.benchmark "MatrixMul" in
  let ctx = Alloc.Context.create k in
  let config = Alloc.Config.make ~mirror_mrf:true () in
  let placement = Alloc.Allocator.place config ctx in
  let sw = Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Sw { config; placement }) in
  let base = Sim.Traffic.run ~warps:1 ctx Sim.Traffic.Baseline in
  (* LRF-resident values are exempt from mirroring (dedicated banks),
     so MRF writes may only drop by the LRF-absorbed share. *)
  let mrf_sw = Energy.Counts.writes sw.Sim.Traffic.counts Energy.Model.Mrf in
  let mrf_base = Energy.Counts.writes base.Sim.Traffic.counts Energy.Model.Mrf in
  let lrf_sw = Energy.Counts.writes sw.Sim.Traffic.counts Energy.Model.Lrf in
  check Alcotest.bool "MRF writes cover ORF-resident values" true
    (mrf_sw >= mrf_base - lrf_sw)

let suite =
  [
    Alcotest.test_case "hw never_flush" `Quick test_hw_never_flush;
    Alcotest.test_case "hw flush on backward" `Quick test_hw_flush_on_backward;
    Alcotest.test_case "simt narrow warp" `Quick test_simt_narrow_warp;
    Alcotest.test_case "asm entry loop" `Quick test_asm_entry_loop;
    Alcotest.test_case "facade compile/measure" `Quick test_facade;
    Alcotest.test_case "facade empty kernel saves nothing" `Quick test_facade_empty_kernel;
    Alcotest.test_case "sweep cache stability" `Quick test_sweep_cache_stability;
    Alcotest.test_case "mirror covers ORF writes" `Quick test_mirror_config_disables_dead_elision;
  ]
