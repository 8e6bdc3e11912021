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
  Energy.Counts.add_read c Energy.Model.Mrf Energy.Model.Private ~n:7 ();
  Energy.Counts.add_write c Energy.Model.Orf Energy.Model.Shared ~n:3 ();
  Energy.Counts.add_write c Energy.Model.Lrf Energy.Model.Private ~n:11 ();
  Energy.Counts.add_rfc_probe c ~n:5 ();
  let j = Energy.Counts.to_json c in
  match Energy.Counts.of_json j with
  | Error e -> Alcotest.fail e
  | Ok c' ->
    check Alcotest.int "mrf private reads" 7
      (Energy.Counts.reads_dp c' Energy.Model.Mrf Energy.Model.Private);
    check Alcotest.int "orf shared writes" 3
      (Energy.Counts.writes_dp c' Energy.Model.Orf Energy.Model.Shared);
    check Alcotest.int "lrf writes" 11 (Energy.Counts.writes c' Energy.Model.Lrf);
    check Alcotest.int "probes" 5 (Energy.Counts.rfc_probes c');
    check Alcotest.string "re-encode is byte-identical" (Obs.Json.to_string j)
      (Obs.Json.to_string (Energy.Counts.to_json c'))

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
  ]
