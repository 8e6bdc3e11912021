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
   max_cycles inside a dead span, must also reproduce byte-for-byte.

   test/perf_wide_golden.jsonl was captured from the engine that
   walked a per-cycle array snapshot of its active queue, before the
   linked queue walked in place: 112 runs of 32 and 100 warps at 300
   instructions per warp (totals, scheduler stats and the MD5 of the
   per-warp rows), byte-for-byte.

   test/perf_cut_golden.jsonl was captured from the engine whose walk
   classified every warp behind the issuer each cycle, before the walk
   ended at the issue: 72 runs of 32 warps cut at 700 or 1,500 cycles
   while many warps wait behind the issuer (totals, scheduler stats,
   and the MD5 of the per-warp rows and of the recorder streams),
   byte-for-byte.

   test/traffic_golden.jsonl was captured from the per-operand
   Sim.Traffic walk over list-based FIFO caches, before the flat walk:
   every registry benchmark's counts under fifteen scheme shapes, plus
   the audit stream, counter samples and attribution ranking of four
   short runs, byte-for-byte.

   test/verify_golden.jsonl was captured from the round-robin
   Alloc.Verify fixpoint over boxed cells, before the worklist: the
   verdict and every message, in order, on generated kernels (a seed
   sweep, large kernels, and every kernel the allocator places wrongly),
   byte-for-byte.

   test/placement_golden.jsonl was captured from the allocator's
   binary-heap queues over list-based reaching and def-use tables,
   before the compile path moved to word bitsets and once-scored
   candidates: every instruction's destination levels, source levels
   and fills plus the allocator stats, on the registry kernels under
   six configs and on generated kernels, and MatrixMul's audit and
   explain streams, byte-for-byte.

   test/simt_golden.jsonl was captured from the Sim.Simt and
   Sim.Variable_orf walks that priced every dynamic instruction operand
   by operand, before they reused Sim.Traffic's per-pc rows: every
   registry kernel's SIMT baseline and SW counts and stats, and its
   variable-ORF counts and grant counters at five pool sizes, at two
   (warps, seed) points, byte-for-byte.

   test/alloc_streams_golden.jsonl was captured from the allocator whose
   two phases wrote its explain verdicts into a side table as they
   drained, before each candidate recorded its own outcome: for every
   run of the placement golden's curated, generated and large
   sections, the decision and allocation-event counts and the MD5 of
   the explain and audit streams, byte-for-byte. *)

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

(* A JSONL golden must match byte-for-byte; a failure names the first
   line that differs. *)
let check_jsonl_golden ~what path current =
  let committed = read_committed path in
  if not (String.equal committed current) then begin
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i a b =
      match (a, b) with
      | x :: a', y :: b' when String.equal x y -> first_diff (i + 1) a' b'
      | x :: _, y :: _ -> Printf.sprintf "line %d: committed %s, current %s" i x y
      | _ -> Printf.sprintf "line %d: one stream ends early" i
    in
    Alcotest.failf "%s diverge from test/%s: %s" what path
      (first_diff 1 (lines committed) (lines current))
  end

(* The recorder streams: dead-cycle jumping rewrites when timeline
   intervals close and when perf.active_warps is sampled, so both are
   held byte-identical to the per-cycle engine's capture. *)
let test_timeline_golden () =
  check_jsonl_golden ~what:"timeline/counter streams" "perf_timeline_golden.jsonl"
    (Perf_golden_doc.timeline_doc ())

(* Long full-width runs: 32 and 100 warps at 300 instructions per warp,
   where the active queue is longest, held to the capture from the
   engine that walked an array snapshot of the queue every cycle. *)
let test_wide_golden () =
  check_jsonl_golden ~what:"full-width results" "perf_wide_golden.jsonl"
    (Perf_golden_doc.wide_doc ())

(* Runs cut at max_cycles in busy stretches, where warps behind each
   cycle's issuer still owe cycles when the run ends: every warp's row
   sums to the cut, the recorders do not change the result, and the
   totals, rows and streams match the capture. *)
let test_cut_golden () =
  let runs = Perf_golden_doc.cut_runs () in
  List.iter
    (fun (max_cycles, (r : Sim.Perf.result), recorded, _) ->
      check Alcotest.int "cut at max_cycles" max_cycles r.Sim.Perf.cycles;
      check Alcotest.bool "recorders on: same result" true (recorded = r);
      Array.iter
        (fun (ws : Sim.Perf.warp_stats) ->
          check Alcotest.int
            (Printf.sprintf "warp %d sums to max_cycles" ws.Sim.Perf.warp)
            max_cycles
            (Sim.Perf.breakdown_total ws.Sim.Perf.breakdown))
        r.Sim.Perf.per_warp)
    runs;
  check_jsonl_golden ~what:"cut runs" "perf_cut_golden.jsonl" (Perf_golden_doc.cut_doc_of runs)

(* The traffic walk: counts, per-strand counts and run totals, and the
   audit/counter/attribution streams, held to the list-based walk's
   capture. *)
let test_traffic_golden () =
  check_jsonl_golden ~what:"traffic results or streams" "traffic_golden.jsonl"
    (Perf_golden_doc.traffic_doc ())

(* The verifier: verdicts, message text and message order on generated
   kernels, held to the round-robin fixpoint's capture. *)
let test_verify_golden () =
  check_jsonl_golden ~what:"verifier verdicts" "verify_golden.jsonl"
    (Perf_golden_doc.verify_doc ())

(* The allocator: every placement and stat, and one kernel's audit and
   explain streams, held to the heap-ordered allocator's capture. *)
let test_placement_golden () =
  check_jsonl_golden ~what:"allocator placements or streams" "placement_golden.jsonl"
    (Perf_golden_doc.placement_doc ())

(* The SIMT and variable-ORF walks: counts, stats and grant counters,
   held to the capture from the walks that priced operand by operand. *)
let test_simt_golden () =
  check_jsonl_golden ~what:"SIMT or variable-ORF results" "simt_golden.jsonl"
    (Perf_golden_doc.simt_doc ())

(* The allocator's explain and audit streams under every config of the
   placement golden, held to the capture from the side-table explainer. *)
let test_alloc_streams_golden () =
  check_jsonl_golden ~what:"allocator explain or audit streams" "alloc_streams_golden.jsonl"
    (Perf_golden_doc.streams_doc ())

(* --- round-robin issue order -------------------------------------- *)

(* [n] independent ALU instructions: never blocked, so the scheduler's
   arbitration alone decides everything. *)
let independent_kernel n =
  let b = B.create "indep" in
  for _ = 1 to n do
    ignore (B.op0 b Op.Mov ())
  done;
  B.finalize b

(* Strict rotation: warp [v] gets its [k]-th issue at cycle [k*w + v],
   so the run takes exactly [w * k_instrs] cycles and warp [v] spends
   its tail [w - 1 - v] cycles classified Finished.  Checked at 4, 32
   and 70 warps (a short queue, the default width, and more warps than
   a machine word has bits), under Single_level and under a Two_level
   scheduler whose active set holds every warp. *)
let test_round_robin_rotation () =
  let k_instrs = 5 in
  let ctx = Alloc.Context.create (independent_kernel k_instrs) in
  List.iter
    (fun (w, sname, scheduler) ->
      let r =
        Sim.Perf.run ~warps:w ~max_dynamic_per_warp:100 ~scheduler
          ~policy:Sim.Perf.On_dependence ctx
      in
      let is what = Printf.sprintf "%d warps, %s: %s" w sname what in
      check Alcotest.int (is "cycles") (w * k_instrs) r.Sim.Perf.cycles;
      check Alcotest.int (is "instructions") (w * k_instrs) r.Sim.Perf.instructions;
      check Alcotest.int (is "no deschedules") 0 r.Sim.Perf.desched_events;
      check Alcotest.int (is "no dependence stalls") 0
        (r.Sim.Perf.stalls.Sim.Perf.wait_long_latency
        + r.Sim.Perf.stalls.Sim.Perf.wait_short_latency
        + r.Sim.Perf.stalls.Sim.Perf.bank_conflict_serialization
        + r.Sim.Perf.stalls.Sim.Perf.descheduled_pending);
      Array.iter
        (fun (ws : Sim.Perf.warp_stats) ->
          let v = ws.Sim.Perf.warp in
          check Alcotest.int
            (is (Printf.sprintf "warp %d issued" v))
            k_instrs ws.Sim.Perf.breakdown.Sim.Perf.issued;
          check Alcotest.int
            (is (Printf.sprintf "warp %d finished tail" v))
            (w - 1 - v)
            ws.Sim.Perf.breakdown.Sim.Perf.finished;
          check Alcotest.int
            (is (Printf.sprintf "warp %d lost arbitration" v))
            ((w * k_instrs) - k_instrs - (w - 1 - v))
            ws.Sim.Perf.breakdown.Sim.Perf.no_issue_slot)
        r.Sim.Perf.per_warp;
      check Alcotest.int (is "entries") w r.Sim.Perf.sched.Sim.Perf.entries;
      check Alcotest.int (is "exits") 0 r.Sim.Perf.sched.Sim.Perf.exits;
      check Alcotest.int (is "resident") (w * w * k_instrs)
        r.Sim.Perf.sched.Sim.Perf.resident_cycles)
    (List.concat_map
       (fun w ->
         [ (w, "Single_level", Sim.Perf.Single_level); (w, "Two_level", Sim.Perf.Two_level w) ])
       [ 4; 32; 70 ])

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

let bench name =
  match Workloads.Registry.find name with
  | Some e -> Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel)
  | None -> Alcotest.failf "no bench %s" name

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
  check Alcotest.bool "reused scratch" true (fresh = reused);
  (* One scratch through a shuffled sequence of runs that resizes every
     per-run table: warp-invariant kernels, whose warps share one
     instruction stream, and kernels with probabilistic branches, whose
     warps each get their own; 8 and 32 warps; caps that cut the walk
     or not; both schedulers and policies, with and without banking.
     Each run must equal the same run on a fresh scratch, so no stream,
     stream position, scoreboard row or queue link of an earlier run
     leaks into a later one. *)
  let configs =
    List.concat_map
      (fun name ->
        let ctx = bench name in
        List.concat_map
          (fun warps ->
            List.concat_map
              (fun cap ->
                List.concat_map
                  (fun scheduler ->
                    List.map
                      (fun policy -> (name, ctx, warps, cap, scheduler, policy))
                      [ Sim.Perf.On_dependence; Sim.Perf.At_strand_boundaries ])
                  [ Sim.Perf.Single_level; Sim.Perf.Two_level 4 ])
              [ 300; 2_000 ])
          [ 8; 32 ])
      [ "sad"; "MatrixMul"; "Mandelbrot"; "needle" ]
    |> Array.of_list
  in
  let g = Util.Prng.create 31 in
  for i = Array.length configs - 1 downto 1 do
    let j = Util.Prng.int g (i + 1) in
    let t = configs.(i) in
    configs.(i) <- configs.(j);
    configs.(j) <- t
  done;
  let s = Sim.Scratch.create () in
  Array.iteri
    (fun i (name, ctx, warps, cap, scheduler, policy) ->
      let mrf_banks = if i mod 2 = 0 then None else Some 4 in
      let run scratch =
        Sim.Perf.run ~warps ~max_dynamic_per_warp:cap ?mrf_banks ~scratch ~scheduler ~policy ctx
      in
      if run s <> run (Sim.Scratch.create ()) then
        Alcotest.failf "run %d (%s, %d warps, cap %d, %s, %s): the reused scratch changed the result"
          i name warps cap
          (match scheduler with
           | Sim.Perf.Single_level -> "Single_level"
           | Sim.Perf.Two_level n -> Printf.sprintf "Two_level %d" n)
          (match policy with
           | Sim.Perf.On_dependence -> "On_dependence"
           | Sim.Perf.At_strand_boundaries -> "At_strand_boundaries"))
    configs

(* --- steady-state allocation -------------------------------------- *)

let minor_delta f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

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
  (* Every warp in one active queue: the walk visits all 32 each cycle
     and moves the issuer to the back. *)
  ignore (check_config "sad, Single_level" (long_bench ()) Sim.Perf.Single_level);
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
  let sw lrf =
    let config = Alloc.Config.make ~lrf () in
    Sim.Traffic.Sw { config; placement = Alloc.Allocator.place config ctx }
  in
  let hw with_lrf =
    Sim.Traffic.Hw { (Sim.Traffic.hw_defaults ~rfc_entries:3) with Sim.Traffic.with_lrf }
  in
  List.iter
    (fun (label, scheme) ->
      let scratch = Sim.Scratch.create () in
      let run () = Sim.Traffic.run ~warps:32 ~scratch ctx scheme in
      let r0 = run () in
      ignore (run ());
      let r1, delta = minor_delta run in
      check Alcotest.bool (label ^ ": reuse preserves result") true (r0 = r1);
      let instrs = float_of_int r1.Sim.Traffic.dynamic_instrs in
      check Alcotest.bool (label ^ ": stream is long enough to mean something") true
        (instrs > 5_000.0);
      (* Per-run tables live in the scratch, so a warmed run allocates
         only its result and a handful of per-run records: a flat budget,
         however long the stream.  The list-based HW cache allocated
         about 130k words per run here. *)
      if delta > 8_192.0 then
        Alcotest.failf "%s: traffic run allocated %.0f minor words over %.0f instrs" label delta
          instrs)
    [
      ("Baseline", Sim.Traffic.Baseline);
      ("SW two-level", sw Alloc.Config.No_lrf);
      ("SW split LRF", sw Alloc.Config.Split);
      ("HW", hw false);
      ("HW+LRF", hw true);
    ]

let suite =
  [
    Alcotest.test_case "288-config differential vs pre-rewrite golden" `Quick
      test_differential_golden;
    Alcotest.test_case "timeline and counter streams match the per-cycle golden" `Quick
      test_timeline_golden;
    Alcotest.test_case "full-width runs match the array-queue golden" `Quick test_wide_golden;
    Alcotest.test_case "runs cut in busy stretches match the cut golden" `Quick
      test_cut_golden;
    Alcotest.test_case "traffic walk matches the list-based golden" `Quick
      test_traffic_golden;
    Alcotest.test_case "verifier verdicts match the round-robin golden" `Quick
      test_verify_golden;
    Alcotest.test_case "allocator placements match the heap-ordered golden" `Quick
      test_placement_golden;
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
    Alcotest.test_case "SIMT and variable-ORF walks match the per-operand golden" `Quick
      test_simt_golden;
    Alcotest.test_case "allocator streams match the side-table golden" `Quick
      test_alloc_streams_golden;
  ]
