(* Simulator tests: the control-flow walker, traffic accounting with
   hand-computed expected counts, the value tracer and the timing
   simulator. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

(* --- Cf ----------------------------------------------------------- *)

let loop_kernel trips =
  let b = B.create "loop" in
  let x = B.op0 b Op.Mov () in
  let head = B.here b in
  B.op2_into b Op.Iadd ~dst:x x x;
  let p = B.op1 b Op.Setp x in
  B.branch b ~pred:p ~target:head (Ir.Terminator.Loop trips);
  let (_ : B.label) = B.here b in
  B.store b Op.St_global ~addr:x ~value:x;
  B.finalize b

let drain k ~warp ~seed = fst (Helpers.cf_stream k ~warp ~seed)

let test_cf_loop_trips () =
  let k = loop_kernel 4 in
  let stream, marker = Helpers.cf_stream k ~warp:0 ~seed:1 in
  (* mov + 4 * (add, setp, bra) + store = 14 dynamic instructions. *)
  check Alcotest.int "dynamic length" 14 (List.length stream);
  check Alcotest.int "ended by Ret, not the cap" (-1) marker

let test_cf_deterministic () =
  let k = loop_kernel 3 in
  let s1 = Helpers.cf_stream k ~warp:2 ~seed:9 in
  let s2 = Helpers.cf_stream k ~warp:2 ~seed:9 in
  check Alcotest.(pair (list int) int) "same stream" s1 s2

let test_cf_cap () =
  let k = loop_kernel 1000 in
  let stream, marker = Helpers.cf_stream ~max_dynamic:50 k ~warp:0 ~seed:1 in
  check Alcotest.int "capped" (-2) marker;
  check Alcotest.int "stopped at cap" 50 (List.length stream)

(* One probabilistic branch over one instruction. *)
let prob_kernel () =
  let b = B.create "p" in
  let x = B.op0 b Op.Mov () in
  let join = B.new_label b in
  let p = B.op1 b Op.Setp x in
  B.branch b ~pred:p ~target:join (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  ignore (B.op0 b Op.Mov ());
  B.start_block b join;
  B.ret b;
  B.finalize b

let test_cf_prob_branch_varies_by_warp () =
  let k = prob_kernel () in
  let lengths =
    List.init 16 (fun w -> List.length (drain k ~warp:w ~seed:3))
  in
  (* Some warps take the branch (3 instrs), some fall through (4). *)
  check Alcotest.bool "warps diverge" true
    (List.exists (fun l -> l = 3) lengths && List.exists (fun l -> l = 4) lengths)

let test_cf_always_never () =
  let mk behavior =
    let b = B.create "t" in
    let x = B.op0 b Op.Mov () in
    let skip = B.new_label b in
    let p = B.op1 b Op.Setp x in
    B.branch b ~pred:p ~target:skip behavior;
    let (_ : B.label) = B.here b in
    ignore (B.op0 b Op.Mov ());
    B.start_block b skip;
    B.ret b;
    B.finalize b
  in
  check Alcotest.int "always skips" 3
    (List.length (drain (mk Ir.Terminator.Always_taken) ~warp:0 ~seed:1));
  check Alcotest.int "never falls through" 4
    (List.length (drain (mk Ir.Terminator.Never_taken) ~warp:0 ~seed:1))

(* --- Traffic: exact baseline counts -------------------------------- *)

let test_traffic_baseline_exact () =
  (* Straight line: mov (0 reads, 1 write), add (2 reads, 1 write),
     store (2 reads).  Per warp: 4 reads, 2 writes. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op2 b Op.Iadd x x in
  B.store b Op.St_global ~addr:x ~value:y;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let r = Sim.Traffic.run ~warps:4 ctx Sim.Traffic.Baseline in
  check Alcotest.int "reads" 16 (Energy.Counts.total_reads r.Sim.Traffic.counts);
  check Alcotest.int "writes" 8 (Energy.Counts.total_writes r.Sim.Traffic.counts);
  (* The store reads via the shared datapath. *)
  check Alcotest.int "shared reads" 8
    (Energy.Counts.reads_dp r.Sim.Traffic.counts Energy.Model.Mrf Energy.Model.Shared);
  check Alcotest.int "dynamic instrs" 12 r.Sim.Traffic.dynamic_instrs

let test_traffic_sw_counts_match_placement () =
  let b = B.create "t" in
  let a = B.fresh b in
  let v = B.op2 b Op.Iadd a a in
  let u = B.op1 b Op.Mov v in
  B.store b Op.St_global ~addr:a ~value:u;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let config = Alloc.Config.make ~lrf:Alloc.Config.Unified () in
  let placement = Alloc.Allocator.place config ctx in
  let r = Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Sw { config; placement }) in
  let c = r.Sim.Traffic.counts in
  (* v -> LRF (read by mov), u -> ORF or MRF (read by store).  The two
     reads of input a come from the MRF (or one fill + ORF read). *)
  check Alcotest.int "lrf writes" 1 (Energy.Counts.writes c Energy.Model.Lrf);
  check Alcotest.int "lrf reads" 1 (Energy.Counts.reads c Energy.Model.Lrf);
  check Alcotest.int "total reads unchanged" 5 (Energy.Counts.total_reads c)

(* HW RFC: hand-computed hit/miss/writeback behaviour. *)
let test_traffic_hw_exact () =
  (* mov x; mov y; add z = x + y; store x z
     - x: miss-free write to RFC
     - y: write to RFC
     - add reads x, y: both RFC hits; writes z (RFC, 2-entry: evicts x,
       which is still live (the store reads it) -> writeback
     - store reads x (MRF, probe) and z (RFC hit). *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op0 b Op.Mov () in
  let z = B.op2 b Op.Iadd x y in
  B.store b Op.St_global ~addr:x ~value:z;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let r =
    Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:2))
  in
  let c = r.Sim.Traffic.counts in
  check Alcotest.int "rfc writes: x,y,z" 3 (Energy.Counts.writes c Energy.Model.Rfc);
  (* reads: x,y at add (hits) + z at store (hit) + eviction read of x *)
  check Alcotest.int "rfc reads" 4 (Energy.Counts.reads c Energy.Model.Rfc);
  check Alcotest.int "mrf writes: writeback of x" 1 (Energy.Counts.writes c Energy.Model.Mrf);
  check Alcotest.int "mrf reads: x at store" 1 (Energy.Counts.reads c Energy.Model.Mrf);
  check Alcotest.int "probes: store's miss on x" 1 (Energy.Counts.rfc_probes c)

let test_traffic_hw_dead_elision () =
  (* The evicted value is dead: no writeback. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op0 b Op.Mov () in
  let z = B.op2 b Op.Iadd x y in
  B.store b Op.St_global ~addr:y ~value:z;
  (* x dead after the add *)
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let r =
    Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:2))
  in
  check Alcotest.int "no writebacks" 0
    (Energy.Counts.writes r.Sim.Traffic.counts Energy.Model.Mrf)

let test_traffic_hw_desched_flush () =
  (* A load's consumer deschedules the warp and flushes live values. *)
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let x = B.op1 b Op.Ld_global a in
  let v = B.op2 b Op.Iadd a a in
  let w = B.op2 b Op.Fadd x v in
  B.store b Op.St_global ~addr:a ~value:w;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let r =
    Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:4))
  in
  check Alcotest.int "one deschedule" 1 r.Sim.Traffic.desched_events;
  (* Flush writes back a (live: read by fadd? no - a is read by store)
     and v (read by fadd after the flush). *)
  check Alcotest.bool "flush writebacks occurred" true
    (Energy.Counts.writes r.Sim.Traffic.counts Energy.Model.Mrf >= 2)

let test_traffic_sw_desched_events () =
  let e = Option.get (Workloads.Registry.find "ScalarProd") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config ctx in
  let r = Sim.Traffic.run ~warps:2 ctx (Sim.Traffic.Sw { config; placement }) in
  check Alcotest.bool "loads force deschedules" true (r.Sim.Traffic.desched_events > 0)

let test_traffic_deterministic () =
  let e = Option.get (Workloads.Registry.find "Mandelbrot") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let r1 = Sim.Traffic.run ~warps:4 ~seed:7 ctx Sim.Traffic.Baseline in
  let r2 = Sim.Traffic.run ~warps:4 ~seed:7 ctx Sim.Traffic.Baseline in
  check Alcotest.int "same reads" (Energy.Counts.total_reads r1.Sim.Traffic.counts)
    (Energy.Counts.total_reads r2.Sim.Traffic.counts);
  check Alcotest.int "same instrs" r1.Sim.Traffic.dynamic_instrs r2.Sim.Traffic.dynamic_instrs

let test_traffic_per_strand_sums () =
  let e = Option.get (Workloads.Registry.find "MatrixMul") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let r = Sim.Traffic.run ~warps:2 ctx Sim.Traffic.Baseline in
  let sum =
    Array.fold_left
      (fun acc c -> acc + Energy.Counts.total_reads c)
      0 r.Sim.Traffic.per_strand
  in
  check Alcotest.int "per-strand partitions totals" (Energy.Counts.total_reads r.Sim.Traffic.counts) sum

(* --- Traffic: the hardware RFC/LRF replay, case by case ------------ *)

(* One warp under Hw, with the audit stream captured: the counts and
   the (instr, level, writeback) of every Evict event. *)
let hw_replay ?(with_lrf = false) ?long_latency_shadow ~rfc_entries k =
  let sink, events = Obs.Audit.memory_sink () in
  Obs.Audit.set_sink sink;
  let r =
    Fun.protect ~finally:Obs.Audit.disable (fun () ->
        Sim.Traffic.run ~warps:1 ?long_latency_shadow (Alloc.Context.create k)
          (Sim.Traffic.Hw { (Sim.Traffic.hw_defaults ~rfc_entries) with Sim.Traffic.with_lrf }))
  in
  let evicts =
    List.filter_map
      (function
        | Obs.Audit.Evict { instr; level; writeback; _ } ->
          Some (instr, Obs.Audit.level_name level, writeback)
        | _ -> None)
      (events ())
  in
  (r.Sim.Traffic.counts, evicts)

let evict_list = Alcotest.(list (triple int string bool))

let test_traffic_hw_rfc_entries_invalid () =
  let b = B.create "t" in
  ignore (B.op0 b Op.Mov ());
  let ctx = Alloc.Context.create (B.finalize b) in
  Alcotest.check_raises "zero entries" (Invalid_argument "Sim.Traffic.run: rfc_entries < 1")
    (fun () ->
      ignore (Sim.Traffic.run ~warps:1 ctx (Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:0))))

let test_traffic_hw_hit_after_write () =
  (* mov x; store x x: the write allocates x, both reads hit. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  B.store b Op.St_global ~addr:x ~value:x;
  let c, evicts = hw_replay ~rfc_entries:2 (B.finalize b) in
  check Alcotest.int "rfc writes" 1 (Energy.Counts.writes c Energy.Model.Rfc);
  check Alcotest.int "rfc reads" 2 (Energy.Counts.reads c Energy.Model.Rfc);
  check Alcotest.int "no mrf reads" 0 (Energy.Counts.reads c Energy.Model.Mrf);
  check Alcotest.int "no probes" 0 (Energy.Counts.rfc_probes c);
  check evict_list "no evictions" [] evicts

let test_traffic_hw_evicts_oldest () =
  (* 0: a = mov; 1: b = mov; 2: e = b + b; 3: store a e.  The 2-entry
     RFC is full at 2: FIFO evicts a (live: written back) rather than b
     (dead after 2, so evicting it would write nothing back).  The store
     then misses on a. *)
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let bb = B.op0 b Op.Mov () in
  let e = B.op2 b Op.Iadd bb bb in
  B.store b Op.St_global ~addr:a ~value:e;
  let c, evicts = hw_replay ~rfc_entries:2 (B.finalize b) in
  check evict_list "a evicted at 2, written back" [ (2, "rfc", true) ] evicts;
  check Alcotest.int "rfc writes: a, b, e" 3 (Energy.Counts.writes c Energy.Model.Rfc);
  check Alcotest.int "rfc reads: b twice, a's writeback, e" 4
    (Energy.Counts.reads c Energy.Model.Rfc);
  check Alcotest.int "mrf writes: a's writeback" 1 (Energy.Counts.writes c Energy.Model.Mrf);
  check Alcotest.int "mrf reads: a at the store" 1 (Energy.Counts.reads c Energy.Model.Mrf);
  check Alcotest.int "probes: the store's miss on a" 1 (Energy.Counts.rfc_probes c)

let test_traffic_hw_rewrite_in_place () =
  (* 0: a = mov; 1: b = mov; 2: a = a + b; 3: c = mov; 4: store a c.
     Rewriting resident a at 2 evicts nothing and keeps a oldest, so c
     evicts a (live: written back), not b (dead after 2). *)
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  let bb = B.op0 b Op.Mov () in
  B.op2_into b Op.Iadd ~dst:a a bb;
  let c = B.op0 b Op.Mov () in
  B.store b Op.St_global ~addr:a ~value:c;
  let counts, evicts = hw_replay ~rfc_entries:2 (B.finalize b) in
  check evict_list "only c evicts, and it evicts a" [ (3, "rfc", true) ] evicts;
  check Alcotest.int "rfc writes: a, b, a, c" 4 (Energy.Counts.writes counts Energy.Model.Rfc);
  check Alcotest.int "probes: the store's miss on a" 1 (Energy.Counts.rfc_probes counts)

let test_traffic_hw_ll_write_drops_copy () =
  (* 0: a = mov; 1: a = ld a; 2: store a a.  The long-latency result
     goes to the MRF and drops the stale cached a, so both store reads
     miss.  A zero shadow keeps the load from descheduling the warp (a
     deschedule would flush the RFC anyway). *)
  let b = B.create "t" in
  let a = B.op0 b Op.Mov () in
  B.op1_into b Op.Ld_global ~dst:a a;
  B.store b Op.St_global ~addr:a ~value:a;
  let c, evicts = hw_replay ~long_latency_shadow:0 ~rfc_entries:2 (B.finalize b) in
  check Alcotest.int "rfc reads: the load's address" 1 (Energy.Counts.reads c Energy.Model.Rfc);
  check Alcotest.int "mrf writes: the load result" 1 (Energy.Counts.writes c Energy.Model.Mrf);
  check Alcotest.int "probes: both store reads miss" 2 (Energy.Counts.rfc_probes c);
  check Alcotest.int "mrf reads: both store reads" 2 (Energy.Counts.reads c Energy.Model.Mrf);
  check evict_list "removal is not an eviction" [] evicts

let test_traffic_hw_flush_order () =
  (* 0: l = ld; 1: a = mov; 2: b = mov; 3: store a a; 4: d = l + b;
     5: store d d.  Instruction 4 waits on the load: the deschedule
     flushes the RFC in FIFO order, a (dead) then b (read by 4). *)
  let b = B.create "t" in
  let l = B.op0 b Op.Ld_global () in
  let a = B.op0 b Op.Mov () in
  let bb = B.op0 b Op.Mov () in
  B.store b Op.St_global ~addr:a ~value:a;
  let d = B.op2 b Op.Fadd l bb in
  B.store b Op.St_global ~addr:d ~value:d;
  let c, evicts = hw_replay ~rfc_entries:3 (B.finalize b) in
  check evict_list "flushed oldest first" [ (4, "rfc", false); (4, "rfc", true) ] evicts;
  check Alcotest.int "mrf writes: l and b's writeback" 2 (Energy.Counts.writes c Energy.Model.Mrf);
  check Alcotest.int "probes: l and b at 4" 2 (Energy.Counts.rfc_probes c)

let test_traffic_hw_lrf_replaces () =
  (* HW+LRF, 2-entry RFC.  0: x = mov; 1: y = mov; 2: z = y + x;
     3: w = z + z; 4: store w w.  The 1-entry LRF takes x, then y
     (x is live: it cascades into the RFC), then z (y is dead).  w feeds
     the shared datapath, so it bypasses the LRF. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op0 b Op.Mov () in
  let z = B.op2 b Op.Iadd y x in
  let w = B.op2 b Op.Iadd z z in
  B.store b Op.St_global ~addr:w ~value:w;
  let c, evicts = hw_replay ~with_lrf:true ~rfc_entries:2 (B.finalize b) in
  check evict_list "each write replaces the entry" [ (1, "lrf", true); (2, "lrf", false) ] evicts;
  check Alcotest.int "lrf writes: x, y, z" 3 (Energy.Counts.writes c Energy.Model.Lrf);
  check Alcotest.int "lrf reads: x's cascade, y, z twice" 4 (Energy.Counts.reads c Energy.Model.Lrf);
  check Alcotest.int "rfc writes: x, w" 2 (Energy.Counts.writes c Energy.Model.Rfc);
  check Alcotest.int "rfc reads: x, w twice" 3 (Energy.Counts.reads c Energy.Model.Rfc);
  check Alcotest.int "no mrf traffic" 0
    (Energy.Counts.reads c Energy.Model.Mrf + Energy.Counts.writes c Energy.Model.Mrf)

(* --- Value trace --------------------------------------------------- *)

let test_value_trace_exact () =
  (* x read twice, y read once at distance 1, z never read. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op2 b Op.Iadd x x in
  let _z = B.op1 b Op.Mov y in
  let k = B.finalize b in
  let s = Sim.Value_trace.collect ~warps:1 k in
  check Alcotest.int "3 values" 3 s.Sim.Value_trace.values_produced;
  check Alcotest.int "one read-0" 1 (Util.Stats.hcount s.Sim.Value_trace.read_counts 0);
  check Alcotest.int "one read-1" 1 (Util.Stats.hcount s.Sim.Value_trace.read_counts 1);
  check Alcotest.int "one read-2" 1 (Util.Stats.hcount s.Sim.Value_trace.read_counts 2);
  check Alcotest.int "read-once lifetime 1" 1
    (Util.Stats.hcount s.Sim.Value_trace.lifetimes_read_once 1)

let test_value_trace_merge () =
  let k = loop_kernel 2 in
  let s1 = Sim.Value_trace.collect ~warps:1 k in
  let s2 = Sim.Value_trace.collect ~warps:1 k in
  let m = Sim.Value_trace.merge [ s1; s2 ] in
  check Alcotest.int "values add up" (2 * s1.Sim.Value_trace.values_produced)
    m.Sim.Value_trace.values_produced

(* --- Perf ---------------------------------------------------------- *)

let test_perf_single_warp_latency () =
  (* One warp, dependent chain: cycles must reflect ALU latency. *)
  let b = B.create "t" in
  let x = B.op0 b Op.Mov () in
  let y = B.op1 b Op.Mov x in
  let z = B.op1 b Op.Mov y in
  B.store b Op.St_global ~addr:z ~value:z;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let r =
    Sim.Perf.run ~warps:1 ~scheduler:Sim.Perf.Single_level ~policy:Sim.Perf.On_dependence ctx
  in
  check Alcotest.int "instructions" 4 r.Sim.Perf.instructions;
  (* 3 dependent ALU ops at 8 cycles each dominate. *)
  check Alcotest.bool "latency-bound" true (r.Sim.Perf.cycles >= 24)

let test_perf_more_warps_help () =
  let e = Option.get (Workloads.Registry.find "VectorAdd") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let ipc n =
    (Sim.Perf.run ~warps:n ~scheduler:Sim.Perf.Single_level ~policy:Sim.Perf.On_dependence ctx)
      .Sim.Perf.ipc
  in
  check Alcotest.bool "8 warps beat 1" true (ipc 8 > ipc 1)

let test_perf_two_level_policies () =
  let e = Option.get (Workloads.Registry.find "MatrixMul") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  List.iter
    (fun policy ->
      let r = Sim.Perf.run ~warps:16 ~scheduler:(Sim.Perf.Two_level 8) ~policy ctx in
      check Alcotest.bool "completes all instructions" true (r.Sim.Perf.instructions > 0);
      check Alcotest.bool "desched happened" true (r.Sim.Perf.desched_events > 0))
    [ Sim.Perf.On_dependence; Sim.Perf.At_strand_boundaries ]

let test_perf_bank_conflicts () =
  (* A dependent chain whose adds read two same-bank registers: with
     a 2-bank MRF, registers 0 and 2 collide, so each link pays an
     extra fetch cycle and the run takes longer than the ideal model. *)
  let b = B.create "t" in
  let r0 = B.op0 b Op.Mov () in
  let r1 = B.op0 b Op.Mov () in
  let r2 = B.op1 b Op.Mov r0 in
  ignore r1;
  let rec chain v n = if n = 0 then v else chain (B.op2 b Op.Iadd r0 (B.op2 b Op.Iadd v r2)) (n - 1) in
  let last = chain r2 6 in
  B.store b Op.St_global ~addr:last ~value:last;
  let k = B.finalize b in
  let ctx = Alloc.Context.create k in
  let run banks =
    (Sim.Perf.run ~warps:1 ?mrf_banks:banks ~scheduler:Sim.Perf.Single_level
       ~policy:Sim.Perf.On_dependence ctx)
      .Sim.Perf.cycles
  in
  let ideal = run None in
  let banked = run (Some 2) in
  Alcotest.(check bool) "conflicts add cycles" true (banked > ideal);
  let many_banks = run (Some 1024) in
  Alcotest.(check int) "conflict-free banking = ideal" ideal many_banks

let test_perf_banked_deterministic () =
  (* The banked model is pure accounting over a deterministic schedule:
     same seed, same result — cycles and the whole stall breakdown. *)
  let e = Option.get (Workloads.Registry.find "MatrixMul") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let run () =
    Sim.Perf.run ~warps:8 ~seed:11 ~mrf_banks:2 ~scheduler:(Sim.Perf.Two_level 4)
      ~policy:Sim.Perf.On_dependence ctx
  in
  let a = run () and b = run () in
  check Alcotest.int "cycles deterministic" a.Sim.Perf.cycles b.Sim.Perf.cycles;
  check Alcotest.int "instructions deterministic" a.Sim.Perf.instructions
    b.Sim.Perf.instructions;
  check
    Alcotest.(list (pair string int))
    "stall breakdown deterministic"
    (Sim.Perf.breakdown_fields a.Sim.Perf.stalls)
    (Sim.Perf.breakdown_fields b.Sim.Perf.stalls)

let test_perf_banked_attribution () =
  (* The extra cycles the banked model adds are attributed to the
     dedicated stall cause — never smeared over the dependence causes —
     and the cause cannot fire without banking. *)
  let b = B.create "t" in
  let r0 = B.op0 b Op.Mov () in
  let r2 = B.op1 b Op.Mov r0 in
  let rec chain v n =
    if n = 0 then v else chain (B.op2 b Op.Iadd r0 (B.op2 b Op.Iadd v r2)) (n - 1)
  in
  let last = chain r2 6 in
  B.store b Op.St_global ~addr:last ~value:last;
  let ctx = Alloc.Context.create (B.finalize b) in
  let run banks =
    Sim.Perf.run ~warps:1 ?mrf_banks:banks ~scheduler:Sim.Perf.Single_level
      ~policy:Sim.Perf.On_dependence ctx
  in
  let ideal = run None and banked = run (Some 2) in
  check Alcotest.int "ideal model never blames banking" 0
    ideal.Sim.Perf.stalls.Sim.Perf.bank_conflict_serialization;
  check Alcotest.bool "banked run blames banking" true
    (banked.Sim.Perf.stalls.Sim.Perf.bank_conflict_serialization > 0);
  check Alcotest.int "conflict-free banking never blames banking" 0
    (run (Some 1024)).Sim.Perf.stalls.Sim.Perf.bank_conflict_serialization

(* [Sim.Cf.warp_invariant] is what lets [Sim.Traffic] walk one warp
   for all and the stream table store one instruction stream for all:
   on every registry kernel it holds for, all 32 warps' own fills are
   one stream at both seeds; a kernel with a probabilistic branch is
   not invariant.  The stream table ([Sim.Scratch.fill_streams], one
   scratch reused throughout) must hold each warp's stream exactly as
   that warp's own fill pushes it, marker included, uncapped and under
   a cap that cuts the walk short, and one stream shared by every warp
   of an invariant kernel. *)
let test_cf_warp_invariant () =
  let kernels =
    List.concat_map
      (fun (e : Workloads.Registry.entry) -> Lazy.force e.Workloads.Registry.kernels)
      (Workloads.Registry.all ())
  in
  check Alcotest.int "registry kernels" 61 (List.length kernels);
  let invariant = List.filter Sim.Cf.warp_invariant kernels in
  check Alcotest.int "warp-invariant kernels" 55 (List.length invariant);
  List.iter
    (fun k ->
      List.iter
        (fun seed ->
          let first = Helpers.cf_stream k ~warp:0 ~seed in
          for warp = 1 to 31 do
            if Helpers.cf_stream k ~warp ~seed <> first then
              Alcotest.failf "%s, seed %d: warp %d's stream differs from warp 0's"
                k.Ir.Kernel.name seed warp
          done)
        [ 1; 0x5eed ])
    invariant;
  check Alcotest.bool "a probabilistic branch is not invariant" false
    (Sim.Cf.warp_invariant (prob_kernel ()));
  let s = Sim.Scratch.create () in
  let truncated = ref 0 in
  List.iter
    (fun k ->
      let shared = Sim.Cf.warp_invariant k in
      List.iter
        (fun (seed, max_dynamic) ->
          Sim.Scratch.fill_streams s ~max_dynamic k ~warps:32 ~seed;
          let ids = s.Sim.Scratch.ids and pc = s.Sim.Scratch.pc in
          for warp = 0 to 31 do
            let where = Printf.sprintf "%s, seed %d, cap %d, warp %d" k.Ir.Kernel.name seed max_dynamic warp in
            if shared && pc.(warp) <> 0 then
              Alcotest.failf "%s: starts at %d, not at the one shared stream" where pc.(warp);
            if (not shared) && warp > 0 && pc.(warp) <= pc.(warp - 1) then
              Alcotest.failf "%s: does not get a stream of its own" where;
            let own, marker = Helpers.cf_stream ~max_dynamic k ~warp ~seed in
            List.iteri
              (fun n id ->
                if ids.(pc.(warp) + n) <> id then
                  Alcotest.failf "%s: instruction %d is %d, the warp's own fill's is %d" where n
                    ids.(pc.(warp) + n) id)
              own;
            let ended = ids.(pc.(warp) + List.length own) in
            if ended <> marker then
              Alcotest.failf "%s: the stream ends in %d, the warp's own fill in %d" where ended
                marker;
            if marker = -2 then incr truncated
          done)
        [ (1, 2_000); (0x5eed, 2_000); (1, 50); (0x5eed, 50) ])
    kernels;
  check Alcotest.bool "the cap cuts some walks short" true (!truncated > 0)

(* [capped_warps] and [dynamic_instrs] against each warp's own fill,
   under caps that cut walks short.  MatrixMul is warp-invariant, so
   its Baseline and Sw runs walk warp 0 alone and weight it, and every
   warp is cut at half its length.  Mandelbrot's loops exit on
   probabilistic branches, so the table holds a stream per warp, and
   the cap at its median length cuts some warps and not others. *)
let test_traffic_capped_warps () =
  let warps = 16 and seed = 0x5eed in
  let config = Alloc.Config.make () in
  List.iter
    (fun (name, invariant, cap_of) ->
      let k = Rfh.benchmark name in
      check Alcotest.bool (name ^ " warp-invariant") invariant (Sim.Cf.warp_invariant k);
      let fills max_dynamic =
        List.init warps (fun warp -> Helpers.cf_stream ~max_dynamic k ~warp ~seed)
      in
      let lengths = List.map (fun (ids, _) -> List.length ids) in
      let cap = cap_of (List.sort Int.compare (lengths (fills Sim.Scratch.default_max_dynamic))) in
      let own = fills cap in
      let capped = List.length (List.filter (fun (_, marker) -> marker = -2) own) in
      let dynamic = List.fold_left ( + ) 0 (lengths own) in
      if invariant then check Alcotest.int (name ^ ": the cap cuts every warp") warps capped
      else
        check Alcotest.bool (name ^ ": the cap cuts some warps and not others") true
          (capped > 0 && capped < warps);
      let ctx = Alloc.Context.create k in
      List.iter
        (fun (scheme_name, scheme) ->
          let r = Sim.Traffic.run ~warps ~seed ~max_dynamic_per_warp:cap ctx scheme in
          let what = Printf.sprintf "%s %s, cap %d: " name scheme_name cap in
          check Alcotest.int (what ^ "capped_warps") capped r.Sim.Traffic.capped_warps;
          check Alcotest.int (what ^ "dynamic_instrs") dynamic r.Sim.Traffic.dynamic_instrs)
        [
          ("baseline", Sim.Traffic.Baseline);
          ("sw", Sim.Traffic.Sw { config; placement = Alloc.Allocator.place config ctx });
          ("hw", Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:3));
        ])
    [
      ("MatrixMul", true, fun sorted -> List.hd sorted / 2);
      ("Mandelbrot", false, fun sorted -> List.nth sorted (List.length sorted / 2));
    ]

let suite =
  [
    Alcotest.test_case "perf bank conflicts" `Quick test_perf_bank_conflicts;
    Alcotest.test_case "perf banked deterministic" `Quick test_perf_banked_deterministic;
    Alcotest.test_case "perf banked attribution" `Quick test_perf_banked_attribution;
    Alcotest.test_case "cf loop trips" `Quick test_cf_loop_trips;
    Alcotest.test_case "cf deterministic" `Quick test_cf_deterministic;
    Alcotest.test_case "cf cap" `Quick test_cf_cap;
    Alcotest.test_case "cf probabilistic divergence" `Quick test_cf_prob_branch_varies_by_warp;
    Alcotest.test_case "cf always/never" `Quick test_cf_always_never;
    Alcotest.test_case "traffic baseline exact" `Quick test_traffic_baseline_exact;
    Alcotest.test_case "traffic sw matches placement" `Quick test_traffic_sw_counts_match_placement;
    Alcotest.test_case "traffic hw exact" `Quick test_traffic_hw_exact;
    Alcotest.test_case "traffic hw dead elision" `Quick test_traffic_hw_dead_elision;
    Alcotest.test_case "traffic hw desched flush" `Quick test_traffic_hw_desched_flush;
    Alcotest.test_case "traffic sw desched events" `Quick test_traffic_sw_desched_events;
    Alcotest.test_case "traffic deterministic" `Quick test_traffic_deterministic;
    Alcotest.test_case "traffic per-strand sums" `Quick test_traffic_per_strand_sums;
    Alcotest.test_case "traffic hw zero rfc entries rejected" `Quick
      test_traffic_hw_rfc_entries_invalid;
    Alcotest.test_case "traffic hw hit after write" `Quick test_traffic_hw_hit_after_write;
    Alcotest.test_case "traffic hw evicts oldest" `Quick test_traffic_hw_evicts_oldest;
    Alcotest.test_case "traffic hw rewrite in place" `Quick test_traffic_hw_rewrite_in_place;
    Alcotest.test_case "traffic hw ll write drops copy" `Quick
      test_traffic_hw_ll_write_drops_copy;
    Alcotest.test_case "traffic hw flush order" `Quick test_traffic_hw_flush_order;
    Alcotest.test_case "traffic hw 1-entry lrf replaces" `Quick test_traffic_hw_lrf_replaces;
    Alcotest.test_case "value trace exact" `Quick test_value_trace_exact;
    Alcotest.test_case "value trace merge" `Quick test_value_trace_merge;
    Alcotest.test_case "perf single warp latency" `Quick test_perf_single_warp_latency;
    Alcotest.test_case "perf more warps help" `Quick test_perf_more_warps_help;
    Alcotest.test_case "perf two-level policies" `Quick test_perf_two_level_policies;
    Alcotest.test_case "cf warp-invariant kernels replay one stream" `Quick
      test_cf_warp_invariant;
    Alcotest.test_case "traffic capped warps = per-warp fills" `Quick test_traffic_capped_warps;
  ]
