(* Differential gate for the allocation-free simulator core.

   test/perf_golden.json was captured from the pre-predecode,
   list-based Sim.Perf engine (see gen_perf_golden.ml).  The rewrite
   onto Dec + Scratch claims bit-identical semantics; this suite holds
   it to that: every registry benchmark under every scheduler x policy
   x banking configuration must reproduce the committed results
   byte-for-byte, scratch reuse must not leak state between runs, and
   the steady-state cycle loop must not allocate.

   test/perf_timeline_golden.jsonl was captured from the per-cycle
   engine before dead-cycle jumping: the Obs.Timeline intervals and
   Obs.Counters samples of low-IPC runs, including one cut off by
   max_cycles inside a dead span, must also reproduce byte-for-byte. *)

let check = Alcotest.check

module B = Ir.Builder
module Op = Ir.Op

(* --- differential vs the committed goldens ------------------------- *)

let read_committed path = In_channel.with_open_text path In_channel.input_all

let test_differential_golden () =
  let committed = read_committed "perf_golden.json" |> String.trim in
  (* Sanity: the committed capture is well-formed and has full coverage. *)
  (match Obs.Json.parse committed with
   | Error e -> Alcotest.failf "committed golden does not parse: %s" e
   | Ok doc ->
     let runs =
       match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list with
       | Some l -> List.length l
       | None -> 0
     in
     check Alcotest.int "golden run count" (Perf_golden_doc.results_run_count ()) runs);
  let current = Obs.Json.to_string (Perf_golden_doc.results_doc ()) in
  if not (String.equal committed current) then
    Alcotest.fail
      "current engine diverges from the committed pre-rewrite golden \
       (test/perf_golden.json); the rewrite must be bit-identical"

(* The recorder streams: dead-cycle jumping rewrites when timeline
   intervals close and when perf.active_warps is sampled, so both are
   held byte-identical to the per-cycle engine's capture. *)
let test_timeline_golden () =
  let committed = read_committed "perf_timeline_golden.jsonl" in
  let current = Perf_golden_doc.timeline_doc () in
  if not (String.equal committed current) then begin
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i a b =
      match (a, b) with
      | x :: a', y :: b' when String.equal x y -> first_diff (i + 1) a' b'
      | x :: _, y :: _ -> Printf.sprintf "line %d: committed %s, current %s" i x y
      | _ -> Printf.sprintf "line %d: one stream ends early" i
    in
    Alcotest.failf
      "timeline/counter streams diverge from test/perf_timeline_golden.jsonl: %s"
      (first_diff 1 (lines committed) (lines current))
  end

(* --- round-robin issue order -------------------------------------- *)

(* [n] independent ALU instructions: never blocked, so the scheduler's
   arbitration alone decides everything. *)
let independent_kernel n =
  let b = B.create "indep" in
  for _ = 1 to n do
    ignore (B.op0 b Op.Mov ())
  done;
  B.finalize b

let test_round_robin_rotation () =
  let k_instrs = 5 and w = 4 in
  let ctx = Alloc.Context.create (independent_kernel k_instrs) in
  let r =
    Sim.Perf.run ~warps:w ~max_dynamic_per_warp:100 ~scheduler:Sim.Perf.Single_level
      ~policy:Sim.Perf.On_dependence ctx
  in
  (* Strict rotation: warp [v] gets its [k]-th issue at cycle [k*w + v],
     so the run takes exactly [w * k_instrs] cycles and warp [v] spends
     its tail [w - 1 - v] cycles classified Finished. *)
  check Alcotest.int "cycles" (w * k_instrs) r.Sim.Perf.cycles;
  check Alcotest.int "instructions" (w * k_instrs) r.Sim.Perf.instructions;
  check Alcotest.int "no deschedules" 0 r.Sim.Perf.desched_events;
  check Alcotest.int "no dependence stalls" 0
    (r.Sim.Perf.stalls.Sim.Perf.wait_long_latency
    + r.Sim.Perf.stalls.Sim.Perf.wait_short_latency
    + r.Sim.Perf.stalls.Sim.Perf.bank_conflict_serialization
    + r.Sim.Perf.stalls.Sim.Perf.descheduled_pending);
  Array.iter
    (fun (ws : Sim.Perf.warp_stats) ->
      let v = ws.Sim.Perf.warp in
      check Alcotest.int
        (Printf.sprintf "warp %d issued" v)
        k_instrs ws.Sim.Perf.breakdown.Sim.Perf.issued;
      check Alcotest.int
        (Printf.sprintf "warp %d finished tail" v)
        (w - 1 - v)
        ws.Sim.Perf.breakdown.Sim.Perf.finished;
      check Alcotest.int
        (Printf.sprintf "warp %d lost arbitration" v)
        ((w * k_instrs) - k_instrs - (w - 1 - v))
        ws.Sim.Perf.breakdown.Sim.Perf.no_issue_slot)
    r.Sim.Perf.per_warp;
  check Alcotest.int "entries" w r.Sim.Perf.sched.Sim.Perf.entries;
  check Alcotest.int "exits" 0 r.Sim.Perf.sched.Sim.Perf.exits;
  check Alcotest.int "resident" (w * w * k_instrs) r.Sim.Perf.sched.Sim.Perf.resident_cycles

(* --- wake-order refill -------------------------------------------- *)

(* One long-latency load (no sources) feeding one ALU consumer.  Under
   Two_level 1 each warp issues its load, blocks on the consumer, and
   is descheduled with a wake at the load's ready cycle; the refill
   must re-admit warps in wake order. *)
let load_consumer_kernel () =
  let b = B.create "ldc" in
  let x = B.op0 b Op.Ld_global () in
  ignore (B.op2 b Op.Iadd x x);
  B.finalize b

let test_wake_order_refill () =
  let ctx = Alloc.Context.create (load_consumer_kernel ()) in
  let r =
    Sim.Perf.run ~warps:3 ~max_dynamic_per_warp:100 ~scheduler:(Sim.Perf.Two_level 1)
      ~policy:Sim.Perf.On_dependence ctx
  in
  let lat = Op.latency Op.Ld_global in
  let issue = Op.issue_cycles Op.Ld_global in
  (* Memory-unit serialization spaces the loads [issue] cycles apart:
     warp v issues its load at cycle [v * issue] and is descheduled
     with wake [v * issue + lat].  Warps re-enter strictly in that
     wake order; the last consumer issues at warp 2's wake and the run
     ends one cycle later. *)
  check Alcotest.int "cycles" ((2 * issue) + lat + 1) r.Sim.Perf.cycles;
  check Alcotest.int "instructions" 6 r.Sim.Perf.instructions;
  check Alcotest.int "desched events" 3 r.Sim.Perf.desched_events;
  check Alcotest.int "desched on long latency" 3
    r.Sim.Perf.sched.Sim.Perf.desched_long_latency;
  (* initial fill + 2 promotions on deschedule + 3 wake-ups *)
  check Alcotest.int "entries" 6 r.Sim.Perf.sched.Sim.Perf.entries;
  (* 3 deschedules + warps 0 and 1 removed on finish (warp 2 ends the run) *)
  check Alcotest.int "exits" 5 r.Sim.Perf.sched.Sim.Perf.exits;
  Array.iter
    (fun (ws : Sim.Perf.warp_stats) ->
      check Alcotest.int
        (Printf.sprintf "warp %d issued" ws.Sim.Perf.warp)
        2 ws.Sim.Perf.breakdown.Sim.Perf.issued)
    r.Sim.Perf.per_warp

(* --- probe purity / scratch independence --------------------------- *)

let test_probe_pure_and_scratch_independent () =
  let e = List.hd (Workloads.Registry.all ()) in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let run ?scratch () =
    Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300 ~mrf_banks:4
      ?scratch ~scheduler:(Sim.Perf.Two_level 4) ~policy:Sim.Perf.At_strand_boundaries ctx
  in
  (* At_strand_boundaries classification consults the outstanding
     long-latency buffer every cycle; the probe must be read-only, so
     results cannot depend on which scratch is used or how often it was
     reused.  (The list-based engine's probe mutated that state.) *)
  let fresh = run ~scratch:(Sim.Scratch.create ()) () in
  let dls1 = run () in
  let dls2 = run () in
  let reused =
    let s = Sim.Scratch.create () in
    ignore (run ~scratch:s ());
    run ~scratch:s ()
  in
  check Alcotest.bool "fresh = domain-local" true (fresh = dls1);
  check Alcotest.bool "repeat on domain-local scratch" true (dls1 = dls2);
  check Alcotest.bool "reused scratch" true (fresh = reused)

(* --- steady-state allocation -------------------------------------- *)

let minor_delta f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let bench name =
  match Workloads.Registry.find name with
  | Some e -> Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel)
  | None -> Alcotest.failf "no bench %s" name

(* The longest-running registry benchmark, so per-run constants drown
   in the per-cycle signal. *)
let long_bench () = bench "sad"

let test_perf_zero_alloc_per_cycle () =
  let check_config label ctx scheduler =
    let scratch = Sim.Scratch.create () in
    let run () =
      Sim.Perf.run ~warps:32 ~max_dynamic_per_warp:600 ~scratch ~scheduler
        ~policy:Sim.Perf.On_dependence ctx
    in
    let r0 = run () in
    ignore (run ());
    let r1, delta = minor_delta run in
    check Alcotest.bool (label ^ ": reuse preserves result") true (r0 = r1);
    let cycles = float_of_int r1.Sim.Perf.cycles in
    check Alcotest.bool (label ^ ": run is long enough to mean something") true
      (cycles > 5_000.0);
    (* The whole warmed run may allocate only its result (a few hundred
       words): the budget is a small constant, far under one word per
       cycle.  The list-based engine spent hundreds of words per cycle. *)
    if delta > 8_192.0 then
      Alcotest.failf "%s: perf run allocated %.0f minor words over %.0f cycles" label delta
        cycles;
    r1
  in
  ignore (check_config "sad, Two_level 8" (long_bench ()) (Sim.Perf.Two_level 8));
  (* Low IPC with one active slot: most cycles are dead, so the run is
     dominated by dead-cycle jumps and the cached-stall path. *)
  let r =
    check_config "ConvolutionSeparable, Two_level 1" (bench "ConvolutionSeparable")
      (Sim.Perf.Two_level 1)
  in
  check Alcotest.bool "ConvolutionSeparable, Two_level 1: low IPC" true (r.Sim.Perf.ipc < 0.5)

(* A cut-off inside a dead span: no warp changes state across cycles
   1774-1805 of this run (test/perf_timeline_golden.jsonl), so the
   jump that crosses 1800 is clamped mid-span.  Every warp still owes
   exactly [max_cycles] warp-cycles, recorder on or off. *)
let test_cut_mid_jump_is_exact () =
  let ctx = bench "BicubicTexture" in
  let warps = 32 and max_cycles = 1_800 in
  let run () =
    Sim.Perf.run ~warps ~max_dynamic_per_warp:12 ~max_cycles
      ~scheduler:(Sim.Perf.Two_level 1) ~policy:Sim.Perf.On_dependence ctx
  in
  let r = run () in
  check Alcotest.int "cut at max_cycles" max_cycles r.Sim.Perf.cycles;
  check Alcotest.int "breakdown sums to max_cycles x warps" (max_cycles * warps)
    (Sim.Perf.breakdown_total r.Sim.Perf.stalls);
  Array.iter
    (fun (ws : Sim.Perf.warp_stats) ->
      check Alcotest.int
        (Printf.sprintf "warp %d sums to max_cycles" ws.Sim.Perf.warp)
        max_cycles
        (Sim.Perf.breakdown_total ws.Sim.Perf.breakdown))
    r.Sim.Perf.per_warp;
  let sink, intervals = Obs.Timeline.memory_sink () in
  Obs.Timeline.set_sink sink;
  let traced = Fun.protect ~finally:Obs.Timeline.disable run in
  check Alcotest.bool "timeline on: same result" true (traced = r);
  check Alcotest.int "intervals tile max_cycles x warps" (max_cycles * warps)
    (List.fold_left
       (fun acc (iv : Obs.Timeline.interval) -> acc + iv.Obs.Timeline.stop - iv.Obs.Timeline.start)
       0 (intervals ()))

let test_traffic_zero_alloc_per_instr () =
  let ctx = long_bench () in
  let scratch = Sim.Scratch.create () in
  let run () = Sim.Traffic.run ~warps:32 ~scratch ctx Sim.Traffic.Baseline in
  let r0 = run () in
  ignore (run ());
  let r1, delta = minor_delta run in
  check Alcotest.bool "reuse preserves result" true
    (r0.Sim.Traffic.counts = r1.Sim.Traffic.counts
    && r0.Sim.Traffic.dynamic_instrs = r1.Sim.Traffic.dynamic_instrs);
  let instrs = float_of_int r1.Sim.Traffic.dynamic_instrs in
  check Alcotest.bool "stream is long enough to mean something" true (instrs > 5_000.0);
  (* Per-warp setup allocates a bounded handful of closures; the
     per-instruction stepping path must allocate nothing. *)
  if delta > 8_192.0 +. (0.1 *. instrs) then
    Alcotest.failf "traffic run allocated %.0f minor words over %.0f instrs" delta instrs

let suite =
  [
    Alcotest.test_case "288-config differential vs pre-rewrite golden" `Quick
      test_differential_golden;
    Alcotest.test_case "timeline and counter streams match the per-cycle golden" `Quick
      test_timeline_golden;
    Alcotest.test_case "round-robin rotation is exact" `Quick test_round_robin_rotation;
    Alcotest.test_case "pending warps re-enter in wake order" `Quick test_wake_order_refill;
    Alcotest.test_case "classification probe is pure across scratches" `Quick
      test_probe_pure_and_scratch_independent;
    Alcotest.test_case "perf steady state allocates nothing" `Quick
      test_perf_zero_alloc_per_cycle;
    Alcotest.test_case "traffic stepping allocates nothing" `Quick
      test_traffic_zero_alloc_per_instr;
    Alcotest.test_case "cut at max_cycles mid-jump sums exactly" `Quick
      test_cut_mid_jump_is_exact;
  ]
