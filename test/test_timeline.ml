(* Tests for warp-level pipeline introspection: the stall-cause
   taxonomy (every warp-cycle attributed, exactly), active-set
   residency accounting, the Obs.Timeline interval recorder
   (zero-cost-when-off, deterministic, JSONL round-trippable), and the
   regression gate on the manifest's stall breakdown. *)

let check = Alcotest.check

(* The timeline recorder is global; leave it off for whoever runs
   next. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Timeline.disable ();
      Obs.Counters.set_enabled false;
      Obs.Counters.reset ();
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

let ctx_of name =
  match Workloads.Registry.find name with
  | Some e -> Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel)
  | None -> Alcotest.failf "unknown benchmark %s" name

let benches = [ "VectorAdd"; "MatrixMul" ]

let configs =
  [
    ("single/on-dep", Sim.Perf.Single_level, Sim.Perf.On_dependence);
    ("two-level-4/on-dep", Sim.Perf.Two_level 4, Sim.Perf.On_dependence);
    ("two-level-4/strand", Sim.Perf.Two_level 4, Sim.Perf.At_strand_boundaries);
  ]

(* --- Exactness: every warp-cycle attributed ------------------------ *)

let test_breakdown_sums_exact () =
  List.iter
    (fun bench ->
      let ctx = ctx_of bench in
      List.iter
        (fun (label, scheduler, policy) ->
          List.iter
            (fun mrf_banks ->
              let warps = 8 in
              let r = Sim.Perf.run ~warps ?mrf_banks ~scheduler ~policy ctx in
              let where =
                Printf.sprintf "%s/%s/banks=%s" bench label
                  (match mrf_banks with None -> "-" | Some b -> string_of_int b)
              in
              check Alcotest.int
                (where ^ ": breakdown sums to cycles x warps")
                (r.Sim.Perf.cycles * warps)
                (Sim.Perf.breakdown_total r.Sim.Perf.stalls);
              Array.iter
                (fun (ws : Sim.Perf.warp_stats) ->
                  check Alcotest.int
                    (Printf.sprintf "%s: warp %d sums to cycles" where ws.Sim.Perf.warp)
                    r.Sim.Perf.cycles
                    (Sim.Perf.breakdown_total ws.Sim.Perf.breakdown))
                r.Sim.Perf.per_warp;
              check Alcotest.int
                (where ^ ": issued cycles = instructions")
                r.Sim.Perf.instructions r.Sim.Perf.stalls.Sim.Perf.issued;
              if mrf_banks = None then
                check Alcotest.int
                  (where ^ ": ideal operand fetch never blames banking")
                  0 r.Sim.Perf.stalls.Sim.Perf.bank_conflict_serialization;
              (* Per-warp rows are the total, sliced. *)
              List.iter
                (fun cause ->
                  check Alcotest.int
                    (Printf.sprintf "%s: per-warp %s sums to total" where
                       (Obs.Timeline.state_name cause))
                    (Sim.Perf.breakdown_get r.Sim.Perf.stalls cause)
                    (Array.fold_left
                       (fun acc (ws : Sim.Perf.warp_stats) ->
                         acc + Sim.Perf.breakdown_get ws.Sim.Perf.breakdown cause)
                       0 r.Sim.Perf.per_warp))
                Obs.Timeline.all_states)
            [ None; Some 2 ])
        configs)
    benches

(* --- Residency accounting ------------------------------------------ *)

let test_residency_accounting () =
  let ctx = ctx_of "MatrixMul" in
  let r =
    Sim.Perf.run ~warps:8 ~scheduler:(Sim.Perf.Two_level 4)
      ~policy:Sim.Perf.On_dependence ctx
  in
  let s = r.Sim.Perf.sched in
  check Alcotest.int "every desched event has a cause" r.Sim.Perf.desched_events
    (s.Sim.Perf.desched_long_latency + s.Sim.Perf.desched_strand_boundary
   + s.Sim.Perf.desched_bank_conflict);
  (* Warps enter once initially and once per refill; they leave by
     desched or by finishing, and at most [warps] never leave. *)
  check Alcotest.bool "entries bound exits" true
    (s.Sim.Perf.exits <= s.Sim.Perf.entries && s.Sim.Perf.entries <= s.Sim.Perf.exits + 8);
  check Alcotest.bool "resident cycles bounded by active slots" true
    (s.Sim.Perf.resident_cycles <= 4 * r.Sim.Perf.cycles);
  check Alcotest.bool "mean residency positive" true (Sim.Perf.mean_residency s > 0.0);
  (* The single-level scheduler holds all warps resident for the whole
     run: residency accounting must reproduce that exactly. *)
  let single =
    Sim.Perf.run ~warps:8 ~scheduler:Sim.Perf.Single_level ~policy:Sim.Perf.On_dependence
      ctx
  in
  check Alcotest.int "single-level: entries = warps" 8 single.Sim.Perf.sched.Sim.Perf.entries;
  check Alcotest.int "single-level: no descheds" 0
    (single.Sim.Perf.sched.Sim.Perf.desched_long_latency
    + single.Sim.Perf.sched.Sim.Perf.desched_strand_boundary
    + single.Sim.Perf.sched.Sim.Perf.desched_bank_conflict)

(* --- Recorder neutrality and interval consistency ------------------ *)

let run_recorded ?mrf_banks ~scheduler ~policy ctx =
  let sink, intervals = Obs.Timeline.memory_sink () in
  Obs.Timeline.set_sink sink;
  let r = Sim.Perf.run ~warps:8 ?mrf_banks ~scheduler ~policy ctx in
  Obs.Timeline.disable ();
  (r, intervals ())

let test_recorder_on_off_identity () =
  List.iter
    (fun bench ->
      let ctx = ctx_of bench in
      Obs.Timeline.disable ();
      let off =
        Sim.Perf.run ~warps:8 ~mrf_banks:2 ~scheduler:(Sim.Perf.Two_level 4)
          ~policy:Sim.Perf.On_dependence ctx
      in
      let on, _ =
        run_recorded ~mrf_banks:2 ~scheduler:(Sim.Perf.Two_level 4)
          ~policy:Sim.Perf.On_dependence ctx
      in
      check Alcotest.bool (bench ^ ": recorder does not perturb the result") true (off = on))
    benches

let test_intervals_tile_and_rederive () =
  let ctx = ctx_of "MatrixMul" in
  let r, ivs =
    run_recorded ~mrf_banks:2 ~scheduler:(Sim.Perf.Two_level 4)
      ~policy:Sim.Perf.On_dependence ctx
  in
  check Alcotest.bool "intervals recorded" true (ivs <> []);
  check Alcotest.(list string) "intervals tile [0, cycles) and re-derive every row" []
    (Helpers.timeline_errors r ivs)

let test_interval_stream_deterministic () =
  let ctx = ctx_of "VectorAdd" in
  let run () =
    snd
      (run_recorded ~scheduler:(Sim.Perf.Two_level 4) ~policy:Sim.Perf.On_dependence ctx)
  in
  check Alcotest.bool "two runs emit identical interval streams" true (run () = run ())

let test_disabled_records_nothing () =
  Obs.Timeline.disable ();
  let ctx = ctx_of "VectorAdd" in
  let sink, intervals = Obs.Timeline.memory_sink () in
  (* Sink installed but recorder not enabled: set_sink enables, so
     instead emit directly while disabled. *)
  ignore sink;
  Obs.Timeline.emit
    { Obs.Timeline.warp = 0; state = Obs.Timeline.Issued; start = 0; stop = 1 };
  ignore (Sim.Perf.run ~warps:2 ~scheduler:Sim.Perf.Single_level
            ~policy:Sim.Perf.On_dependence ctx);
  check Alcotest.int "nothing recorded while disabled" 0 (List.length (intervals ()))

(* --- JSONL codec --------------------------------------------------- *)

let test_json_roundtrip () =
  let ctx = ctx_of "VectorAdd" in
  let _, ivs =
    run_recorded ~scheduler:(Sim.Perf.Two_level 4) ~policy:Sim.Perf.On_dependence ctx
  in
  check Alcotest.bool "some intervals recorded" true (ivs <> []);
  List.iter
    (fun iv ->
      let line = Obs.Json.to_string (Obs.Timeline.to_json iv) in
      match Obs.Json.parse line with
      | Error e -> Alcotest.fail e
      | Ok j ->
        (match Obs.Timeline.of_json j with
         | Error e -> Alcotest.fail e
         | Ok iv' ->
           check Alcotest.string "re-encode is byte-identical" line
             (Obs.Json.to_string (Obs.Timeline.to_json iv'))))
    ivs

let test_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok j ->
        (match Obs.Timeline.of_json j with
         | Error _ -> ()
         | Ok _ -> Alcotest.failf "accepted %s" s))
    [
      "{}";
      "{\"ev\":\"decision\"}";
      "[1,2]";
      "{\"ev\":\"interval\",\"warp\":0,\"state\":\"nope\",\"start\":0,\"stop\":1}";
      "{\"ev\":\"interval\",\"warp\":0,\"state\":\"issued\",\"start\":5,\"stop\":1}";
      "{\"ev\":\"interval\",\"warp\":\"x\",\"state\":\"issued\",\"start\":0,\"stop\":1}";
    ]

let test_state_names_roundtrip () =
  List.iter
    (fun s ->
      match Obs.Timeline.state_of_name (Obs.Timeline.state_name s) with
      | Some s' -> check Alcotest.bool "name round-trips" true (s = s')
      | None -> Alcotest.failf "state name %s does not decode" (Obs.Timeline.state_name s))
    Obs.Timeline.all_states;
  check Alcotest.int "taxonomy is complete" 7 (List.length Obs.Timeline.all_states)

(* --- Manifest parity (byte-level, across --jobs) -------------------- *)

(* Scrub wall clock and recorded parallelism, as in test_explain.ml. *)
let rec scrub = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (fun (k, v) ->
           if k = "total_ms" || k = "jobs" then (k, Obs.Json.Num 0.0) else (k, scrub v))
         fields)
  | Obs.Json.Arr xs -> Obs.Json.Arr (List.map scrub xs)
  | j -> j

let collect_scrubbed ~jobs =
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Experiments.Sweep.clear_caches ();
  let opts =
    Experiments.Options.with_jobs
      (Experiments.Options.with_benchmarks
         { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
         benches)
      jobs
  in
  let m = Experiments.Run_manifest.collect opts in
  Obs.Json.to_string (scrub (Obs.Manifest.to_json m))

let test_manifest_bytes_recorder_and_jobs () =
  Obs.Timeline.disable ();
  let off = collect_scrubbed ~jobs:1 in
  let sink, _ = Obs.Timeline.memory_sink () in
  Obs.Timeline.set_sink sink;
  let on = collect_scrubbed ~jobs:1 in
  let on_par = collect_scrubbed ~jobs:4 in
  Obs.Timeline.disable ();
  let off_par = collect_scrubbed ~jobs:4 in
  check Alcotest.string "recorder does not perturb the manifest" off on;
  check Alcotest.string "--jobs parity holds with the recorder on" off on_par;
  check Alcotest.string "--jobs parity holds with the recorder off" off off_par

(* --- Regression gate covers the stall breakdown --------------------- *)

let rec update keys f j =
  match (keys, j) with
  | [], _ -> f j
  | "0" :: rest, Obs.Json.Arr (x :: tl) -> Obs.Json.Arr (update rest f x :: tl)
  | k :: rest, Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map (fun (key, v) -> if key = k then (key, update rest f v) else (key, v)) fields)
  | _ -> Alcotest.fail "update: path not found"

let bump = function
  | Obs.Json.Num n -> Obs.Json.Num (n +. 1.0)
  | _ -> Alcotest.fail "not a number"

let test_regress_gates_stall_breakdown () =
  let opts =
    Experiments.Options.with_benchmarks
      { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
      benches
  in
  let baseline = Obs.Manifest.to_json (Experiments.Run_manifest.collect opts) in
  let check_trips path expected_path =
    let perturbed = update path bump baseline in
    let r = Obs.Regress.diff_json ~baseline ~current:perturbed () in
    match r.Obs.Regress.violations with
    | [ v ] ->
      check Alcotest.string "names the perturbed field" expected_path v.Obs.Regress.path;
      check Alcotest.string "exact for deterministic counts" "count mismatch"
        v.Obs.Regress.kind
    | vs ->
      Alcotest.failf "%s: expected exactly one violation, got %d" expected_path
        (List.length vs)
  in
  check_trips
    [ "benches"; "0"; "stalls"; "wait_long_latency" ]
    "benches[VectorAdd].stalls.wait_long_latency";
  check_trips
    [ "benches"; "0"; "sched"; "desched_long_latency" ]
    "benches[VectorAdd].sched.desched_long_latency"

let suite =
  [
    Alcotest.test_case "breakdown sums exact" `Quick (isolated test_breakdown_sums_exact);
    Alcotest.test_case "residency accounting" `Quick (isolated test_residency_accounting);
    Alcotest.test_case "recorder on/off identity" `Quick
      (isolated test_recorder_on_off_identity);
    Alcotest.test_case "intervals tile and re-derive breakdown" `Quick
      (isolated test_intervals_tile_and_rederive);
    Alcotest.test_case "interval stream deterministic" `Quick
      (isolated test_interval_stream_deterministic);
    Alcotest.test_case "disabled records nothing" `Quick
      (isolated test_disabled_records_nothing);
    Alcotest.test_case "interval JSON round-trip" `Quick (isolated test_json_roundtrip);
    Alcotest.test_case "interval JSON rejects garbage" `Quick
      (isolated test_of_json_rejects_garbage);
    Alcotest.test_case "state names round-trip" `Quick (isolated test_state_names_roundtrip);
    Alcotest.test_case "manifest bytes: recorder + --jobs parity" `Slow
      (isolated test_manifest_bytes_recorder_and_jobs);
    Alcotest.test_case "regress gates the stall breakdown" `Quick
      (isolated test_regress_gates_stall_breakdown);
  ]
