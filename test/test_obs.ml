(* Tests for the observability subsystem: metrics registry arithmetic,
   span recording and Chrome-trace export, audit event encoding, and
   the zero-cost-when-disabled contract. *)

let check = Alcotest.check

(* Every obs test runs against the global recorders, so leave them
   clean for whoever runs next. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Audit.disable ();
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

(* --- Metrics ------------------------------------------------------ *)

let test_counter_arithmetic () =
  let r = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.counter ~registry:r "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  check Alcotest.int "accumulates" 42 (Obs.Metrics.counter_value c);
  check Alcotest.bool "interned" true (c == Obs.Metrics.counter ~registry:r "test.counter");
  let s = Obs.Metrics.snapshot ~registry:r () in
  check Alcotest.(list (pair string int)) "snapshot" [ ("test.counter", 42) ] s.Obs.Metrics.counters;
  Obs.Metrics.incr ~by:8 c;
  let s' = Obs.Metrics.snapshot ~registry:r () in
  let d = Obs.Metrics.diff s' s in
  check Alcotest.(list (pair string int)) "diff" [ ("test.counter", 8) ] d.Obs.Metrics.counters;
  Obs.Metrics.reset ~registry:r ();
  check Alcotest.int "reset zeroes" 0 (Obs.Metrics.counter_value c);
  check Alcotest.bool "empty after reset" true
    (Obs.Metrics.is_empty (Obs.Metrics.snapshot ~registry:r ()))

let test_histogram_summary () =
  let r = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:r "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0; 100.0 ];
  match (Obs.Metrics.snapshot ~registry:r ()).Obs.Metrics.histograms with
  | [ (name, s) ] ->
    check Alcotest.string "name" "test.hist" name;
    check Alcotest.int "count" 5 s.Obs.Metrics.count;
    check (Alcotest.float 1e-9) "sum" 110.0 s.Obs.Metrics.sum;
    check (Alcotest.float 1e-9) "mean" 22.0 s.Obs.Metrics.mean;
    check (Alcotest.float 1e-9) "min" 1.0 s.Obs.Metrics.min;
    check (Alcotest.float 1e-9) "max" 100.0 s.Obs.Metrics.max;
    check (Alcotest.float 1e-9) "p50" 3.0 s.Obs.Metrics.p50;
    check (Alcotest.float 1e-9) "p95" 100.0 s.Obs.Metrics.p95
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

let test_gauge () =
  let r = Obs.Metrics.create_registry () in
  let g = Obs.Metrics.gauge ~registry:r "test.gauge" in
  Obs.Metrics.set_gauge g 2.5;
  check Alcotest.(list (pair string (float 0.0))) "gauge" [ ("test.gauge", 2.5) ]
    (Obs.Metrics.snapshot ~registry:r ()).Obs.Metrics.gauges

let test_metrics_json () =
  let r = Obs.Metrics.create_registry () in
  Obs.Metrics.incr ~by:7 (Obs.Metrics.counter ~registry:r "a");
  let j = Obs.Metrics.to_json (Obs.Metrics.snapshot ~registry:r ()) in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    let v = Option.bind (Obs.Json.member "counters" parsed) (Obs.Json.member "a") in
    check Alcotest.(option int) "counter survives JSON" (Some 7) (Option.bind v Obs.Json.to_int)

(* --- Json --------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a \"quoted\"\nline");
        ("n", Obs.Json.Num 1.5);
        ("i", Obs.Json.int (-42));
        ("b", Obs.Json.Bool true);
        ("z", Obs.Json.Null);
        ("l", Obs.Json.Arr [ Obs.Json.int 1; Obs.Json.int 2 ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok parsed -> check Alcotest.bool "round-trips" true (parsed = j)
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* --- Span / Chrome trace ------------------------------------------ *)

let test_span_disabled_is_free () =
  Obs.Span.reset ();
  Obs.Span.set_enabled false;
  let x = Obs.Span.with_span "phase" (fun () -> 17) in
  check Alcotest.int "result passes through" 17 x;
  check Alcotest.int "nothing recorded" 0 (List.length (Obs.Span.spans ()))

let test_span_nesting_chrome_trace () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  let result =
    Obs.Span.with_span "outer" (fun () ->
        Obs.Span.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
        Obs.Span.with_span "inner" (fun () -> ());
        "done")
  in
  check Alcotest.string "value" "done" result;
  let spans = Obs.Span.spans () in
  check Alcotest.int "three spans" 3 (List.length spans);
  (* Export and validate the Chrome trace shape. *)
  match Obs.Json.parse (Obs.Trace_export.to_string spans) with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    let events =
      Option.value ~default:[] (Option.bind (Obs.Json.member "traceEvents" trace) Obs.Json.to_list)
    in
    let xs =
      List.filter
        (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str = Some "X")
        events
    in
    check Alcotest.int "one complete event per span" 3 (List.length xs);
    let field name conv e = Option.bind (Obs.Json.member name e) conv in
    List.iter
      (fun e ->
        check Alcotest.bool "has name" true (field "name" Obs.Json.to_str e <> None);
        let ts = field "ts" Obs.Json.to_num e and dur = field "dur" Obs.Json.to_num e in
        check Alcotest.bool "has numeric ts" true (ts <> None);
        check Alcotest.bool "has numeric dur" true (dur <> None);
        check Alcotest.bool "ts >= 0" true (Option.get ts >= 0.0);
        check Alcotest.bool "dur >= 0" true (Option.get dur >= 0.0))
      xs;
    (* The inner spans must nest inside the outer one. *)
    let bounds name =
      List.filter_map
        (fun e ->
          if field "name" Obs.Json.to_str e = Some name then
            Some (Option.get (field "ts" Obs.Json.to_num e), Option.get (field "dur" Obs.Json.to_num e))
          else None)
        xs
    in
    let outer_ts, outer_dur = List.hd (bounds "outer") in
    List.iter
      (fun (ts, dur) ->
        check Alcotest.bool "inner starts after outer" true (ts >= outer_ts);
        check Alcotest.bool "inner ends before outer" true
          (ts +. dur <= outer_ts +. outer_dur +. 1e-3))
      (bounds "inner");
    (* Depths recorded: outer at 0, inners at 1. *)
    let depths =
      List.filter_map
        (fun (s : Obs.Span.span) -> Some (s.Obs.Span.name, s.Obs.Span.depth))
        spans
    in
    check Alcotest.bool "outer depth 0" true (List.mem ("outer", 0) depths);
    check Alcotest.bool "inner depth 1" true (List.mem ("inner", 1) depths)

let test_span_survives_exception () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  (try Obs.Span.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let recorded = Obs.Span.spans () in
  check Alcotest.int "span recorded despite raise" 1 (List.length recorded);
  (* Depth restored: a following span sits at depth 0 again. *)
  Obs.Span.with_span "after" (fun () -> ());
  let after = List.find (fun (s : Obs.Span.span) -> s.Obs.Span.name = "after") (Obs.Span.spans ()) in
  check Alcotest.int "depth restored" 0 after.Obs.Span.depth

(* --- Audit -------------------------------------------------------- *)

let sample_events =
  [
    Obs.Audit.Alloc
      {
        reg = "%r7";
        kind = Obs.Audit.Write_unit;
        strand = 2;
        level = Obs.Audit.Lrf;
        slot = 1;
        first = 10;
        last = 14;
        reads = 3;
        savings = 27.5;
        partial = false;
        mrf_copy = true;
      };
    Obs.Audit.Alloc
      {
        reg = "%r9";
        kind = Obs.Audit.Read_unit;
        strand = 0;
        level = Obs.Audit.Orf;
        slot = 2;
        first = 3;
        last = 9;
        reads = 2;
        savings = 4.25;
        partial = true;
        mrf_copy = true;
      };
    Obs.Audit.Place { warp = 3; instr = 12; level = Obs.Audit.Orf };
    Obs.Audit.Fill { warp = 1; instr = 4; pos = 0; entry = 2 };
    Obs.Audit.Evict { warp = 0; instr = 9; level = Obs.Audit.Rfc; writeback = true };
    Obs.Audit.Strand_boundary { instr = 17; strand = 4 };
    Obs.Audit.Desched { warp = 5; instr = 21; cause = Obs.Audit.Sw_boundary };
    Obs.Audit.Desched { warp = 6; instr = 22; cause = Obs.Audit.Scheduler };
  ]

let test_audit_jsonl_roundtrip () =
  (* Serialize as JSONL (via a sink into a buffer), parse each line
     back, decode, compare. *)
  let path = Filename.temp_file "rfh_audit" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter (Obs.Audit.jsonl_sink oc) sample_events;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check Alcotest.int "one line per event" (List.length sample_events) (List.length lines);
      let decoded =
        List.map
          (fun line ->
            match Obs.Json.parse line with
            | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e
            | Ok j ->
              (match Obs.Audit.of_json j with
               | Ok ev -> ev
               | Error e -> Alcotest.failf "undecodable event %S: %s" line e))
          lines
      in
      check Alcotest.bool "round-trips" true (decoded = sample_events))

let test_audit_of_json_rejects () =
  List.iter
    (fun s ->
      let j = Result.get_ok (Obs.Json.parse s) in
      match Obs.Audit.of_json j with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error _ -> ())
    [
      {|{"ev":"bogus"}|};
      {|{"ev":"place","warp":0}|};
      {|{"ev":"place","warp":0,"instr":1,"level":"l2"}|};
      {|{"warp":0,"instr":1,"level":"lrf"}|};
    ]

let vectoradd_ctx () =
  let e = Option.get (Workloads.Registry.find "VectorAdd") in
  Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel)

let run_pipeline () =
  let ctx = vectoradd_ctx () in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config ctx in
  let sw = Sim.Traffic.run ~warps:4 ctx (Sim.Traffic.Sw { config; placement }) in
  let baseline = Sim.Traffic.run ~warps:4 ctx Sim.Traffic.Baseline in
  (sw, baseline)

let test_noop_sink_records_nothing () =
  let sink, events = Obs.Audit.memory_sink () in
  Obs.Audit.set_sink sink;
  Obs.Audit.set_enabled false;
  let _ = run_pipeline () in
  check Alcotest.int "no events recorded when disabled" 0 (List.length (events ()));
  (* emit itself is a no-op while disabled. *)
  Obs.Audit.emit (Obs.Audit.Place { warp = 0; instr = 0; level = Obs.Audit.Mrf });
  check Alcotest.int "emit is a no-op" 0 (List.length (events ()))

let test_place_events_match_counts () =
  let sink, events = Obs.Audit.memory_sink () in
  Obs.Audit.set_sink sink;
  let sw, baseline = run_pipeline () in
  Obs.Audit.disable ();
  let expected = Energy.Counts.create () in
  Energy.Counts.merge_into ~dst:expected sw.Sim.Traffic.counts;
  Energy.Counts.merge_into ~dst:expected baseline.Sim.Traffic.counts;
  let placed level =
    List.length
      (List.filter
         (function Obs.Audit.Place { level = l; _ } -> l = level | _ -> false)
         (events ()))
  in
  check Alcotest.int "LRF placements = LRF writes" (Energy.Counts.writes expected Energy.Model.Lrf)
    (placed Obs.Audit.Lrf);
  check Alcotest.int "ORF placements = ORF writes" (Energy.Counts.writes expected Energy.Model.Orf)
    (placed Obs.Audit.Orf);
  check Alcotest.int "MRF placements = MRF writes" (Energy.Counts.writes expected Energy.Model.Mrf)
    (placed Obs.Audit.Mrf);
  check Alcotest.bool "some placements happened" true (placed Obs.Audit.Mrf > 0)

let test_audit_events_from_allocator () =
  let sink, events = Obs.Audit.memory_sink () in
  Obs.Audit.set_sink sink;
  let ctx = vectoradd_ctx () in
  let _ = Alloc.Allocator.run (Alloc.Config.make ()) ctx in
  Obs.Audit.disable ();
  let allocs =
    List.filter (function Obs.Audit.Alloc _ -> true | _ -> false) (events ())
  in
  check Alcotest.bool "allocator reports decisions" true (List.length allocs > 0)

(* --- p99 ---------------------------------------------------------- *)

let test_histogram_p99 () =
  let r = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:r "test.p99" in
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  match (Obs.Metrics.snapshot ~registry:r ()).Obs.Metrics.histograms with
  | [ (_, s) ] ->
    check Alcotest.bool "p50 <= p95" true (s.Obs.Metrics.p50 <= s.Obs.Metrics.p95);
    check Alcotest.bool "p95 <= p99" true (s.Obs.Metrics.p95 <= s.Obs.Metrics.p99);
    check Alcotest.bool "p99 <= max" true (s.Obs.Metrics.p99 <= s.Obs.Metrics.max);
    check Alcotest.bool "p99 in the tail" true (s.Obs.Metrics.p99 >= 95.0);
    (* p99 must survive the JSON snapshot codec too. *)
    let j = Obs.Metrics.to_json (Obs.Metrics.snapshot ~registry:r ()) in
    let p99 =
      Option.bind (Obs.Json.member "histograms" j) (Obs.Json.member "test.p99")
      |> Fun.flip Option.bind (Obs.Json.member "p99")
      |> Fun.flip Option.bind Obs.Json.to_num
    in
    check Alcotest.(option (float 1e-9)) "p99 in JSON" (Some s.Obs.Metrics.p99) p99
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

(* --- Prng-driven audit round-trip --------------------------------- *)

(* Random events covering every variant and every enum value; floats
   are dyadic rationals so the JSON number printer is exact. *)
let random_event g =
  let levels = [| Obs.Audit.Lrf; Obs.Audit.Orf; Obs.Audit.Mrf; Obs.Audit.Rfc |] in
  let causes =
    [| Obs.Audit.Sw_boundary; Obs.Audit.Hw_dependence; Obs.Audit.Bank_conflict;
       Obs.Audit.Scheduler |]
  in
  let kinds = [| Obs.Audit.Write_unit; Obs.Audit.Read_unit |] in
  match Util.Prng.int g 6 with
  | 0 ->
    let first = Util.Prng.int g 1000 in
    Obs.Audit.Alloc
      {
        reg = Printf.sprintf "%%r%d" (Util.Prng.int g 64);
        kind = Util.Prng.pick g kinds;
        strand = Util.Prng.int g 16;
        level = (if Util.Prng.bool g then Obs.Audit.Lrf else Obs.Audit.Orf);
        slot = Util.Prng.int g 8;
        first;
        last = first + Util.Prng.int g 50;
        reads = Util.Prng.int g 10;
        savings = float_of_int (Util.Prng.int g 100_000) /. 16.0;
        partial = Util.Prng.bool g;
        mrf_copy = Util.Prng.bool g;
      }
  | 1 ->
    Obs.Audit.Place
      { warp = Util.Prng.int g 32; instr = Util.Prng.int g 2000; level = Util.Prng.pick g levels }
  | 2 ->
    Obs.Audit.Fill
      {
        warp = Util.Prng.int g 32;
        instr = Util.Prng.int g 2000;
        pos = Util.Prng.int g 3;
        entry = Util.Prng.int g 8;
      }
  | 3 ->
    Obs.Audit.Evict
      {
        warp = Util.Prng.int g 32;
        instr = Util.Prng.int g 2000;
        level = Util.Prng.pick g levels;
        writeback = Util.Prng.bool g;
      }
  | 4 -> Obs.Audit.Strand_boundary { instr = Util.Prng.int g 2000; strand = Util.Prng.int g 16 }
  | _ ->
    Obs.Audit.Desched
      { warp = Util.Prng.int g 32; instr = Util.Prng.int g 2000; cause = Util.Prng.pick g causes }

let test_audit_prng_roundtrip () =
  let g = Util.Prng.create 0xA0D17 in
  for _ = 1 to 500 do
    let ev = random_event g in
    let encoded = Obs.Json.to_string (Obs.Audit.to_json ev) in
    match Obs.Json.parse encoded with
    | Error e -> Alcotest.failf "unparseable %s: %s" encoded e
    | Ok j ->
      (match Obs.Audit.of_json j with
       | Error e -> Alcotest.failf "undecodable %s: %s" encoded e
       | Ok ev' ->
         if ev' <> ev then Alcotest.failf "round-trip changed event: %s" encoded)
  done

(* --- Per-domain trace tracks -------------------------------------- *)

let test_trace_domain_tids () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Obs.Span.with_span "main-work" (fun () -> ignore (Sys.opaque_identity 1));
  let workers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            Obs.Span.with_span (Printf.sprintf "worker-%d" i) (fun () ->
                ignore (Sys.opaque_identity i))))
  in
  List.iter Domain.join workers;
  let spans = Obs.Span.spans () in
  let domains = List.sort_uniq compare (List.map (fun s -> s.Obs.Span.domain) spans) in
  check Alcotest.bool "spans from several domains" true (List.length domains >= 2);
  match Obs.Json.parse (Obs.Trace_export.to_string spans) with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    let events =
      Option.value ~default:[]
        (Option.bind (Obs.Json.member "traceEvents" trace) Obs.Json.to_list)
    in
    let of_phase p =
      List.filter (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str = Some p) events
    in
    let tids_of evs =
      List.sort_uniq compare
        (List.filter_map (fun e -> Option.bind (Obs.Json.member "tid" e) Obs.Json.to_int) evs)
    in
    let x_tids = tids_of (of_phase "X") in
    check Alcotest.bool "distinct tid tracks" true (List.length x_tids >= 2);
    check Alcotest.(list int) "X tids match span domains" domains x_tids;
    (* One thread_name metadata row per domain. *)
    let thread_names =
      List.filter
        (fun e -> Option.bind (Obs.Json.member "name" e) Obs.Json.to_str = Some "thread_name")
        (of_phase "M")
    in
    check Alcotest.(list int) "metadata row per domain" domains (tids_of thread_names)

(* --- Manifest / regression gate ----------------------------------- *)

let collect_small () =
  let opts =
    Experiments.Options.with_benchmarks
      { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
      [ "VectorAdd"; "MatrixMul" ]
  in
  Experiments.Run_manifest.collect opts

let test_manifest_byte_stability () =
  let m = collect_small () in
  let once = Obs.Manifest.to_string m in
  match Obs.Manifest.of_string once with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    check Alcotest.string "encode/decode/re-encode is byte-stable" once
      (Obs.Manifest.to_string decoded);
    check Alcotest.int "benches survive" 2 (List.length decoded.Obs.Manifest.benches)

let test_regress_self_diff_ok () =
  let m = collect_small () in
  let r = Obs.Regress.diff ~baseline:m ~current:m () in
  check Alcotest.bool "self-diff is clean" true (Obs.Regress.ok r);
  check Alcotest.bool "values were compared" true (r.Obs.Regress.compared > 100)

(* Structural update along an object path; "0" descends into the first
   array element. *)
let rec update keys f j =
  match (keys, j) with
  | [], _ -> f j
  | "0" :: rest, Obs.Json.Arr (x :: tl) -> Obs.Json.Arr (update rest f x :: tl)
  | k :: rest, Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map (fun (key, v) -> if key = k then (key, update rest f v) else (key, v)) fields)
  | _ -> Alcotest.fail "update: path not found"

let test_regress_detects_perturbed_count () =
  let m = collect_small () in
  let baseline = Obs.Manifest.to_json m in
  let perturbed =
    update
      [ "benches"; "0"; "counts"; "mrf"; "writes"; "private" ]
      (function Obs.Json.Num n -> Obs.Json.Num (n +. 1.0) | _ -> Alcotest.fail "not a number")
      baseline
  in
  let r = Obs.Regress.diff_json ~baseline ~current:perturbed () in
  (match r.Obs.Regress.violations with
   | [ v ] ->
     check Alcotest.string "names the perturbed field"
       "benches[VectorAdd].counts.mrf.writes.private" v.Obs.Regress.path;
     check Alcotest.string "exact for deterministic counts" "count mismatch" v.Obs.Regress.kind
   | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* options.jobs is how the run was parallelised, never a regression. *)
  let jobs_differ =
    update [ "options"; "jobs" ] (fun _ -> Obs.Json.int 4) baseline
  in
  check Alcotest.bool "options.jobs ignored" true
    (Obs.Regress.ok (Obs.Regress.diff_json ~baseline ~current:jobs_differ ()))

(* The meta section is provenance, not results: a baseline recorded on
   one host must check cleanly on a completely different one, and
   against a pre-v3 manifest that has no meta section at all. *)
let test_regress_ignores_meta () =
  let m = collect_small () in
  let baseline = Obs.Manifest.to_json m in
  let other_host =
    update [ "meta" ]
      (fun _ ->
        Obs.Json.Obj
          [
            ("cores", Obs.Json.int 128);
            ("os", Obs.Json.Str "Win32");
            ("ocaml", Obs.Json.Str "9.9.9");
            ("git_rev", Obs.Json.Str "deadbeef");
            ("git_dirty", Obs.Json.Bool true);
          ])
      baseline
  in
  check Alcotest.bool "differing host fingerprint checks clean" true
    (Obs.Regress.ok (Obs.Regress.diff_json ~baseline ~current:other_host ()));
  let no_meta =
    match baseline with
    | Obs.Json.Obj fields -> Obs.Json.Obj (List.filter (fun (k, _) -> k <> "meta") fields)
    | _ -> Alcotest.fail "manifest JSON is not an object"
  in
  check Alcotest.bool "manifest without meta checks clean" true
    (Obs.Regress.ok (Obs.Regress.diff_json ~baseline ~current:no_meta ()));
  check Alcotest.bool "extra meta on current side checks clean" true
    (Obs.Regress.ok (Obs.Regress.diff_json ~baseline:no_meta ~current:baseline ()))

let test_regress_timing_tolerance () =
  let m = collect_small () in
  let baseline = Obs.Manifest.to_json m in
  let slower =
    update
      [ "phases"; "0"; "total_ms" ]
      (function Obs.Json.Num n -> Obs.Json.Num ((n +. 1.0) *. 10.0) | v -> v)
      baseline
  in
  check Alcotest.bool "timings skipped by default" true
    (Obs.Regress.ok (Obs.Regress.diff_json ~baseline ~current:slower ()));
  check Alcotest.bool "timings gated by --timing-tol" false
    (Obs.Regress.ok (Obs.Regress.diff_json ~timing_tol:0.5 ~baseline ~current:slower ()))

let test_energy_counts_json_roundtrip () =
  let c = Energy.Counts.create () in
  Helpers.add_counts c
    [
      (Energy.Counts.read_cell Energy.Model.Mrf Energy.Model.Private, 7);
      (Energy.Counts.write_cell Energy.Model.Orf Energy.Model.Shared, 3);
      (Energy.Counts.write_cell Energy.Model.Lrf Energy.Model.Private, 11);
      (Energy.Counts.probe_cell, 5);
    ];
  let j = Energy.Counts.to_json c in
  let at path =
    Option.bind (List.fold_left (fun v key -> Option.bind v (Obs.Json.member key)) (Some j) path)
      Obs.Json.to_int
  in
  let count = Alcotest.(option int) in
  check count "mrf private reads" (Some 7) (at [ "mrf"; "reads"; "private" ]);
  check count "orf shared writes" (Some 3) (at [ "orf"; "writes"; "shared" ]);
  check count "lrf private writes" (Some 11) (at [ "lrf"; "writes"; "private" ]);
  check count "untouched cell" (Some 0) (at [ "rfc"; "reads"; "shared" ]);
  check count "probes" (Some 5) (at [ "rfc_probes" ]);
  check
    Alcotest.(list string)
    "levels in MRF, ORF, RFC, LRF order, then the probes"
    [ "mrf"; "orf"; "rfc"; "lrf"; "rfc_probes" ]
    (match j with Obs.Json.Obj fields -> List.map fst fields | _ -> [])

(* Every page must open from disk offline: no scripts, no fetches. *)
let check_standalone html =
  check Alcotest.bool "is a complete document" true
    (Helpers.count_sub html "<!DOCTYPE html>" = 1 && Helpers.count_sub html "</html>" = 1);
  List.iter
    (fun needle ->
      check Alcotest.int (Printf.sprintf "no external fetch (%s)" needle) 0 (Helpers.count_sub html needle))
    [ "http"; "src="; "href="; "<script" ]

let test_html_report_standalone () =
  let m = collect_small () in
  let html = Obs.Html_report.page ~title:"rfh run report" (Obs.Html_report.render m) in
  check_standalone html;
  check Alcotest.bool "mentions each benchmark" true
    (Helpers.count_sub html "VectorAdd" > 0 && Helpers.count_sub html "MatrixMul" > 0)

(* An explain page's kernel section is the decision table [rfh explain]
   prints and the kernel's heatmap, ahead of the run report. *)
let test_explain_page_standalone () =
  let m = collect_small () in
  let k = Lazy.force (Option.get (Workloads.Registry.find "MatrixMul")).Workloads.Registry.kernel in
  let sink, decisions = Obs.Explain.memory_sink () in
  Obs.Explain.set_sink sink;
  Fun.protect ~finally:Obs.Explain.disable (fun () ->
      ignore (Alloc.Allocator.run (Alloc.Config.make ()) (Alloc.Context.create k)));
  let report =
    {
      Obs.Explain.kr_kernel = k.Ir.Kernel.name;
      kr_decisions = decisions ();
      kr_instrs = [ { Obs.Explain.pc = 0; strand = 0; text = "ld <r1> & r2"; pj = 2.0; share = 1.0 } ];
      kr_total_pj = 2.0;
    }
  in
  let plain = Obs.Html_report.page ~title:"rfh explain" (Obs.Html_report.render m) in
  let html =
    Obs.Html_report.page ~title:"rfh explain"
      ([
         Obs.Html_report.explain_header report;
         Obs.Html_report.Table (Obs.Explain.decision_table ~kernel:report.kr_kernel report.kr_decisions);
         Obs.Html_report.heatmap report;
       ]
      @ Obs.Html_report.render m)
  in
  check_standalone html;
  check Alcotest.int "one <table per table: the run report's plus the decision table"
    (Helpers.count_sub plain "<table" + 1) (Helpers.count_sub html "<table");
  check Alcotest.int "the decision table rendered" 1
    (Helpers.count_sub html (Printf.sprintf "<caption>Decisions: %s</caption>" k.Ir.Kernel.name));
  check Alcotest.bool "heatmap text escaped" true (Helpers.count_sub html "ld &lt;r1&gt; &amp; r2" = 1)

(* A recorded manifest keeps 12 significant digits of each float; the
   gate compares a fresh run at that precision, so a run diffs clean
   against its own file at tolerance 0. *)
let test_regress_zero_tol_against_own_file () =
  let m = collect_small () in
  let third = 0.1 +. 0.2 in
  let m =
    match m.Obs.Manifest.benches with
    | b :: rest ->
      { m with Obs.Manifest.benches = { b with Obs.Manifest.norm_energy = third } :: rest }
    | [] -> Alcotest.fail "no benches collected"
  in
  let path = Filename.temp_file "rfh_regress" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Manifest.write_file ~path m;
      match Obs.Manifest.read_file ~path with
      | Error e -> Alcotest.fail e
      | Ok stored ->
        let stored_energy = (List.hd stored.Obs.Manifest.benches).Obs.Manifest.norm_energy in
        check Alcotest.bool "the file rounds the float" true (stored_energy <> third);
        let r = Obs.Regress.diff ~float_tol:0.0 ~baseline:stored ~current:m () in
        check
          Alcotest.(list string)
          "no violation at tolerance 0" []
          (List.map (fun v -> v.Obs.Regress.path) r.Obs.Regress.violations))

(* --- Record codecs --------------------------------------------------- *)

(* A property: decoding a generated value's encoding gives the value
   back, and re-encoding it gives the same bytes. *)
let round_trip ~name ?(count = 200) gen to_string of_string =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1 |])
    (QCheck.Test.make ~count ~name (QCheck.make ~print:to_string gen) (fun v ->
         let line = to_string v in
         match of_string line with
         | Error e -> QCheck.Test.fail_reportf "%s: %s" line e
         | Ok v' -> (v' = v && to_string v' = line) || QCheck.Test.fail_report "value or bytes changed"))

let codec_strings c = (Obs.Json.(fun v -> to_string (encode c v)), Obs.Json.decode_string c)

(* [s] with the first [sub] replaced by [by]. *)
let replace_first s ~sub ~by =
  match Helpers.find_sub s sub with
  | None -> Alcotest.failf "%S not in %s" sub s
  | Some at ->
    let rest = at + String.length sub in
    String.sub s 0 at ^ by ^ String.sub s rest (String.length s - rest)

let gen_int = QCheck.Gen.int_range (-1_000_000) 1_000_000

(* Multiples of 1/64 below 2^14 print exactly in 12 significant digits. *)
let gen_num = QCheck.Gen.map (fun n -> float_of_int n /. 64.0) gen_int

let gen_str = QCheck.Gen.(string_size ~gen:char (int_bound 8))
let gen_list g = QCheck.Gen.(list_size (int_bound 3) g)
let gen_assoc g = gen_list (QCheck.Gen.pair gen_str g)

let gen_raw =
  QCheck.Gen.map
    (fun kvs -> Obs.Json.Obj (List.map (fun (k, n) -> (k, Obs.Json.int n)) kvs))
    (gen_assoc gen_int)

let gen_host =
  let open QCheck.Gen in
  let+ cores = gen_int and+ os = gen_str and+ ocaml = gen_str and+ git_rev = gen_str
  and+ git_dirty = bool in
  { Obs.Host.cores; os; ocaml; git_rev; git_dirty }

let gen_snapshot =
  let open QCheck.Gen in
  let summary =
    let+ count = gen_int and+ sum = gen_num and+ mean = gen_num and+ min = gen_num
    and+ max = gen_num and+ p50 = gen_num and+ p95 = gen_num and+ p99 = gen_num in
    { Obs.Metrics.count; sum; mean; min; max; p50; p95; p99 }
  in
  let+ counters = gen_assoc gen_int and+ gauges = gen_assoc gen_num
  and+ histograms = gen_assoc summary in
  { Obs.Metrics.counters; gauges; histograms }

let gen_manifest =
  let open QCheck.Gen in
  let options =
    let+ warps = gen_int and+ seed = gen_int and+ jobs = gen_int and+ orf_entries = gen_int
    and+ lrf = gen_str and+ params_fp = gen_str and+ benchmarks = gen_list gen_str in
    { Obs.Manifest.warps; seed; jobs; orf_entries; lrf; params_fp; benchmarks }
  in
  let sched =
    let+ entries = gen_int and+ exits = gen_int and+ resident_cycles = gen_int
    and+ desched_long_latency = gen_int and+ desched_strand_boundary = gen_int
    and+ desched_bank_conflict = gen_int in
    { Obs.Manifest.entries; exits; resident_cycles; desched_long_latency;
      desched_strand_boundary; desched_bank_conflict }
  in
  let bench =
    let+ bench = gen_str and+ strands = gen_int and+ write_units = gen_int
    and+ read_units = gen_int and+ lrf_allocs = gen_int and+ orf_allocs = gen_int
    and+ partial_allocs = gen_int and+ dynamic_instrs = gen_int and+ desched_events = gen_int
    and+ capped_warps = gen_int and+ norm_energy = gen_num and+ total_pj = gen_num
    and+ baseline_pj = gen_num and+ ipc = gen_num and+ stalls = gen_assoc gen_int
    and+ sched = sched and+ counts = gen_raw
    and+ energy_pj = gen_assoc (pair gen_num gen_num) in
    { Obs.Manifest.bench; strands; write_units; read_units; lrf_allocs; orf_allocs;
      partial_allocs; dynamic_instrs; desched_events; capped_warps; norm_energy; total_pj;
      baseline_pj; ipc; stalls; sched; counts; energy_pj }
  in
  let phase =
    let+ phase = gen_str and+ calls = gen_int and+ total_ms = gen_num in
    { Obs.Manifest.phase; calls; total_ms }
  in
  let+ options = options and+ meta = gen_host and+ benches = gen_list bench
  and+ metrics = gen_snapshot and+ phases = gen_list phase and+ alloc_events = gen_int
  and+ top_allocs = gen_list gen_raw in
  { Obs.Manifest.options; meta; benches; metrics; phases; audit = { alloc_events; top_allocs } }

let prop_manifest_round_trip =
  round_trip ~name:"manifest codec round-trip" ~count:100 gen_manifest Obs.Manifest.to_string
    Obs.Manifest.of_string

let prop_host_round_trip =
  let to_string, of_string = codec_strings Obs.Host.codec in
  round_trip ~name:"host codec round-trip" gen_host to_string of_string

let prop_snapshot_round_trip =
  let to_string, of_string = codec_strings Obs.Metrics.snapshot_codec in
  round_trip ~name:"metrics snapshot codec round-trip" gen_snapshot to_string of_string

(* Integral numbers outside OCaml's int range are not ints: converting
   them is unspecified, and 1e300 read as 0 on x86-64. *)
let test_json_to_int_range () =
  let to_int x = Obs.Json.to_int (Obs.Json.Num x) in
  let int = Alcotest.(option int) in
  check int "1e300" None (to_int 1e300);
  check int "2^62" None (to_int 4.6116860184273879e18);
  check int "-2^62 is min_int" (Some min_int) (to_int (-4.6116860184273879e18));
  check int "the largest float below 2^62" (Some 4611686018427387392) (to_int 4611686018427387392.0);
  check int "a fraction" None (to_int 0.5);
  let record =
    {
      Obs.History.timestamp = "2026-08-08T00:00:00Z";
      source = "test";
      host = { Obs.Host.cores = 2; os = "Unix"; ocaml = "5.1.1"; git_rev = "r"; git_dirty = false };
      jobs = 7;
      wall_s = 1.0;
      benches = [];
      perfgate = None;
    }
  in
  let huge = replace_first (Obs.History.to_string record) ~sub:"\"jobs\":7" ~by:"\"jobs\":1e300" in
  check Alcotest.bool "a history line with jobs 1e300 does not decode" true
    (Result.is_error (Obs.History.of_string huge))

(* The committed golden manifest decodes and re-encodes to its exact
   bytes (write_file adds the trailing newline). *)
let test_default_baseline_bytes () =
  let text = In_channel.with_open_bin "../baselines/default.json" In_channel.input_all in
  match Obs.Manifest.of_string (String.trim text) with
  | Error e -> Alcotest.fail e
  | Ok m -> check Alcotest.string "re-encodes to its bytes" text (Obs.Manifest.to_string m ^ "\n")

let test_decoder_edge_cases () =
  let m = collect_small () in
  let baseline = Obs.Manifest.to_json m in
  let decode j = Obs.Manifest.of_string (Obs.Json.to_string j) in
  let with_field keys f = decode (update keys f baseline) in
  let error_names what = function
    | Ok _ -> Alcotest.failf "decoded a manifest with %s" what
    | Error e ->
      if Helpers.find_sub e what = None then Alcotest.failf "error %S does not name %s" e what
  in
  (match
     with_field [ "options" ] (function
       | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("arch", Obs.Json.Str "x86_64") ])
       | _ -> Alcotest.fail "options is not an object")
   with
  | Ok m' ->
    check Alcotest.string "an unknown key is ignored" (Obs.Manifest.to_string m)
      (Obs.Manifest.to_string m')
  | Error e -> Alcotest.fail e);
  error_names "benches[0].sched.entries"
    (with_field [ "benches"; "0"; "sched" ] (function
      | Obs.Json.Obj fields -> Obs.Json.Obj (List.remove_assoc "entries" fields)
      | _ -> Alcotest.fail "sched is not an object"));
  error_names "options.warps" (with_field [ "options"; "warps" ] (fun _ -> Obs.Json.Str "four"));
  (* An explain line edited as [make why-smoke] edits it: the ORF
     outcome becomes an MRF one in place, leaving its entry and
     shortening count behind.  A missing outcome field reads as 0 and
     a missing "why" as "". *)
  let d =
    {
      (Test_why.dec ~outcome:(Obs.Explain.To_orf { entry = 2; shortened = 1 }) 0) with
      candidates = [ Test_why.cand "lrf" 0.0 (Obs.Explain.Ineligible "") ];
    }
  in
  let line = Obs.Json.to_string (Obs.Explain.to_json d) in
  let decode_edited ~sub ~by =
    Result.bind (Obs.Json.parse (replace_first line ~sub ~by)) Obs.Explain.of_json
  in
  let decodes_to what want = function
    | Ok d' -> check Alcotest.bool what true (d' = want)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  decodes_to "the why-smoke edit decodes to To_mrf" { d with outcome = To_mrf }
    (decode_edited ~sub:"\"to\":\"orf\"" ~by:"\"to\":\"mrf\"");
  decodes_to "a missing shortening count reads as 0"
    { d with outcome = To_orf { entry = 2; shortened = 0 } }
    (decode_edited ~sub:",\"shortened\":1" ~by:"");
  decodes_to "a missing why reads as \"\"" d (decode_edited ~sub:",\"why\":\"\"" ~by:"")

let suite =
  [
    Alcotest.test_case "counter arithmetic" `Quick (isolated test_counter_arithmetic);
    Alcotest.test_case "histogram summary" `Quick (isolated test_histogram_summary);
    Alcotest.test_case "gauge" `Quick (isolated test_gauge);
    Alcotest.test_case "metrics to JSON" `Quick (isolated test_metrics_json);
    Alcotest.test_case "json round-trip" `Quick (isolated test_json_roundtrip);
    Alcotest.test_case "json rejects garbage" `Quick (isolated test_json_rejects_garbage);
    Alcotest.test_case "disabled spans are free" `Quick (isolated test_span_disabled_is_free);
    Alcotest.test_case "span nesting -> Chrome trace" `Quick (isolated test_span_nesting_chrome_trace);
    Alcotest.test_case "span survives exception" `Quick (isolated test_span_survives_exception);
    Alcotest.test_case "audit JSONL round-trip" `Quick (isolated test_audit_jsonl_roundtrip);
    Alcotest.test_case "audit rejects bad JSON" `Quick (isolated test_audit_of_json_rejects);
    Alcotest.test_case "no-op sink records nothing" `Quick (isolated test_noop_sink_records_nothing);
    Alcotest.test_case "place events match Energy.Counts" `Quick (isolated test_place_events_match_counts);
    Alcotest.test_case "allocator reports into audit" `Quick (isolated test_audit_events_from_allocator);
    Alcotest.test_case "histogram p99" `Quick (isolated test_histogram_p99);
    Alcotest.test_case "audit Prng round-trip" `Quick (isolated test_audit_prng_roundtrip);
    Alcotest.test_case "per-domain trace tids" `Quick (isolated test_trace_domain_tids);
    Alcotest.test_case "manifest byte-stability" `Quick (isolated test_manifest_byte_stability);
    Alcotest.test_case "regress self-diff ok" `Quick (isolated test_regress_self_diff_ok);
    Alcotest.test_case "regress flags perturbed count" `Quick (isolated test_regress_detects_perturbed_count);
    Alcotest.test_case "regress ignores host meta" `Quick (isolated test_regress_ignores_meta);
    Alcotest.test_case "regress timing tolerance" `Quick (isolated test_regress_timing_tolerance);
    Alcotest.test_case "energy counts JSON round-trip" `Quick (isolated test_energy_counts_json_roundtrip);
    Alcotest.test_case "html report standalone" `Quick (isolated test_html_report_standalone);
    Alcotest.test_case "explain page standalone" `Quick (isolated test_explain_page_standalone);
    Alcotest.test_case "regress tolerance 0 against own file" `Quick
      (isolated test_regress_zero_tol_against_own_file);
    Alcotest.test_case "json to_int within int range" `Quick test_json_to_int_range;
    prop_manifest_round_trip;
    prop_host_round_trip;
    prop_snapshot_round_trip;
    Alcotest.test_case "default.json re-encodes to its bytes" `Quick test_default_baseline_bytes;
    Alcotest.test_case "codec decoder edge cases" `Quick (isolated test_decoder_edge_cases);
  ]
