(* Gcprof tests: the compute+gc sub-split of the engine profiler's
   useful time (exact at every jobs setting), quick_stat region deltas,
   tolerance of lost ring events, the history gc section's JSONL
   round-trip, trend gating on a GC-share step, and manifest
   byte-parity with the GC recorder on or off. *)

let check = Alcotest.check

(* Every test switches global recorders; never leave either on. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      if Obs.Gcprof.enabled () then ignore (Obs.Gcprof.stop () : Obs.Gcprof.capture);
      Util.Eprof.stop ())
    f

let busy_work x =
  let acc = ref x in
  for i = 1 to 20_000 do
    acc := (!acc * 31) + i
  done;
  !acc

(* Enough allocation to force minor collections inside the region. *)
let alloc_work x =
  let acc = ref 0 in
  for _ = 1 to 50 do
    acc := !acc + List.length (List.init 4_000 (fun i -> (x * i) + 1))
  done;
  !acc

(* --- compute + gc = useful, exactly, at jobs 1 and 4 ---------------- *)

let test_gc_split_exact () =
  List.iter
    (fun jobs ->
      let _, report =
        Obs.Engine.profile ~label:"gcsplit" ~jobs (fun () ->
            Util.Pool.parallel_map ~jobs ~label:"gcsplit.map" alloc_work
              (List.init 16 Fun.id))
      in
      check Alcotest.bool
        (Printf.sprintf "capture present at jobs=%d" jobs)
        true
        (report.Obs.Engine.gc <> None);
      check Alcotest.(list string)
        (Printf.sprintf "no invariant violations at jobs=%d" jobs)
        [] (Obs.Engine.check report);
      List.iter
        (fun (reg : Obs.Engine.region) ->
          let c = reg.Obs.Engine.cats in
          (* The sub-split contract, restated without Engine.check:
             gc is carved out of useful, so compute = useful - gc is
             non-negative and the 7-way budget sum is untouched. *)
          check Alcotest.bool "0 <= gc <= useful" true
            (c.Obs.Engine.gc_ns >= 0 && c.Obs.Engine.gc_ns <= c.Obs.Engine.useful_ns);
          check Alcotest.int "budget sum ignores the sub-split"
            (reg.Obs.Engine.wall_ns * reg.Obs.Engine.domains)
            (Obs.Engine.cat_total c))
        report.Obs.Engine.regions;
      let share = Obs.Engine.gc_share report in
      check Alcotest.bool "gc share is a fraction of useful" true
        (share >= 0.0 && share <= 1.0))
    [ 1; 4 ]

(* --- quick_stat deltas: allocating vs quiet regions ----------------- *)

let test_region_mem_deltas () =
  let _, report =
    Obs.Engine.profile ~label:"mem" ~jobs:1 (fun () ->
        ignore (Util.Pool.parallel_map ~jobs:1 ~label:"mem.alloc" alloc_work [ 1; 2 ]);
        ignore (Util.Pool.parallel_map ~jobs:1 ~label:"mem.quiet" busy_work [ 1; 2 ]))
  in
  let g = match report.Obs.Engine.gc with Some g -> g | None -> Alcotest.fail "no capture" in
  let label_of id =
    match
      List.find_opt (fun (r : Obs.Engine.region) -> r.Obs.Engine.id = id)
        report.Obs.Engine.regions
    with
    | Some r -> r.Obs.Engine.label
    | None -> Alcotest.failf "region_mem names unknown region %d" id
  in
  let words lbl =
    List.filter_map
      (fun (m : Obs.Gcprof.region_mem) ->
        if label_of m.Obs.Gcprof.gm_region = lbl then Some m.Obs.Gcprof.gm_minor_words
        else None)
      g.Obs.Gcprof.c_region_mem
    |> List.fold_left ( +. ) 0.0
  in
  (* One Gc.quick_stat snapshot pair per region: the allocator shows
     up in its own region's delta, not the quiet one's. *)
  check Alcotest.bool "allocating region recorded megaword-scale minor words" true
    (words "mem.alloc" > 100_000.0);
  check Alcotest.bool "quiet region allocates orders of magnitude less" true
    (words "mem.quiet" < words "mem.alloc" /. 10.0);
  (* Deltas are monotone counters read twice; none can be negative. *)
  List.iter
    (fun (m : Obs.Gcprof.region_mem) ->
      check Alcotest.bool "non-negative deltas" true
        (m.Obs.Gcprof.gm_minor_words >= 0.0
        && m.Obs.Gcprof.gm_promoted_words >= 0.0
        && m.Obs.Gcprof.gm_major_words >= 0.0
        && m.Obs.Gcprof.gm_minor_collections >= 0
        && m.Obs.Gcprof.gm_major_collections >= 0))
    g.Obs.Gcprof.c_region_mem

(* --- lost ring events degrade the capture, never the report --------- *)

let test_lost_events_tolerated () =
  let _, report =
    Obs.Engine.profile ~label:"lost" ~jobs:2 (fun () ->
        Util.Pool.parallel_map ~jobs:2 ~label:"lost.map" alloc_work (List.init 8 Fun.id))
  in
  let g = match report.Obs.Engine.gc with Some g -> g | None -> Alcotest.fail "no capture" in
  (* Simulate an overrun ring: the consumer reports dropped events and
     an unmatched phase end.  Attribution degrades (some pauses
     missing) but every invariant holds and the JSON still carries
     both counts, byte-stably. *)
  let degraded =
    { report with Obs.Engine.gc = Some { g with Obs.Gcprof.c_lost_events = 7; c_unmatched = 2 } }
  in
  check Alcotest.(list string) "degraded capture passes check" []
    (Obs.Engine.check degraded);
  let j = Obs.Engine.to_json degraded in
  let gc_int name =
    Option.bind (Obs.Json.member "gc" j) (fun g -> Option.bind (Obs.Json.member name g) Obs.Json.to_int)
  in
  check Alcotest.(option int) "lost_events encoded" (Some 7) (gc_int "lost_events");
  check Alcotest.(option int) "unmatched encoded" (Some 2) (gc_int "unmatched");
  let s = Obs.Json.to_string j in
  check Alcotest.string "encoding is deterministic" s
    (Obs.Json.to_string (Obs.Engine.to_json degraded));
  match Obs.Json.parse s with
  | Error e -> Alcotest.failf "degraded report does not re-parse: %s" e
  | Ok j' -> check Alcotest.string "parse/print is byte-identical" s (Obs.Json.to_string j')

(* --- manifest byte-parity with the GC recorder on or off ------------ *)

let benches = [ "VectorAdd"; "Reduction"; "cp" ]

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

let test_manifest_parity_gcprof_off_and_on () =
  check Alcotest.bool "gc recorder starts off" false (Obs.Gcprof.enabled ());
  let off_serial = collect_scrubbed ~jobs:1 in
  let off_par = collect_scrubbed ~jobs:4 in
  check Alcotest.string "gcprof-off manifests byte-identical at jobs 1 vs 4"
    off_serial off_par;
  Obs.Gcprof.start ();
  let on_serial = collect_scrubbed ~jobs:1 in
  let on_par = collect_scrubbed ~jobs:4 in
  ignore (Obs.Gcprof.stop () : Obs.Gcprof.capture);
  check Alcotest.string "gcprof-on manifest matches gcprof-off" off_serial on_serial;
  check Alcotest.string "gcprof-on parity holds at jobs=4" off_serial on_par

(* --- disabled recorder leaves no trace in reports ------------------- *)

let test_disabled_recorder_reports_no_gc () =
  check Alcotest.bool "gc recorder is off" false (Obs.Gcprof.enabled ());
  let _, report =
    Obs.Engine.profile ~label:"nogc" ~gcprof:false ~jobs:2 (fun () ->
        Util.Pool.parallel_map ~jobs:2 ~label:"nogc.map" alloc_work (List.init 8 Fun.id))
  in
  check Alcotest.bool "no capture" true (report.Obs.Engine.gc = None);
  List.iter
    (fun (reg : Obs.Engine.region) ->
      check Alcotest.int "gc_ns identically zero" 0 reg.Obs.Engine.cats.Obs.Engine.gc_ns)
    report.Obs.Engine.regions;
  check Alcotest.(list string) "report still exact" [] (Obs.Engine.check report);
  (* And the JSON carries no gc object to keep pre-gcprof decoders happy. *)
  check Alcotest.bool "no gc key in the JSON" true
    (Obs.Json.member "gc" (Obs.Engine.to_json report) = None)

let suite =
  [
    Alcotest.test_case "compute+gc = useful exactly" `Quick (isolated test_gc_split_exact);
    Alcotest.test_case "region quick_stat deltas" `Quick (isolated test_region_mem_deltas);
    Alcotest.test_case "lost events tolerated" `Quick (isolated test_lost_events_tolerated);
    Alcotest.test_case "manifest parity with gcprof" `Quick
      (isolated test_manifest_parity_gcprof_off_and_on);
    Alcotest.test_case "disabled recorder is invisible" `Quick
      (isolated test_disabled_recorder_reports_no_gc);
  ]
