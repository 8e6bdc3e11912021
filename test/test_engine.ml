(* Engine-profiler tests: the exact wall x domains accounting, memo
   classification, lock contention counting, recorder neutrality
   (manifest byte-parity across --jobs with the recorder on or off) and
   the engine-report JSON round-trip. *)

let check = Alcotest.check

(* Every test switches the global Eprof recorder; never leave it on. *)
let isolated f () = Fun.protect ~finally:Util.Eprof.stop f

(* --- Region accounting: categories >= 0 and sum to wall x domains --- *)

let profile_map ~jobs ?(label = "test.map") f xs =
  Obs.Engine.profile ~label ~jobs (fun () -> Util.Pool.parallel_map ~jobs ~label f xs)

let busy_work x =
  let acc = ref x in
  for i = 1 to 20_000 do
    acc := (!acc * 31) + i
  done;
  !acc

let test_region_accounting () =
  let input = List.init 32 Fun.id in
  List.iter
    (fun jobs ->
      let results, report = profile_map ~jobs busy_work input in
      check Alcotest.(list int) "results unchanged under profiling" (List.map busy_work input)
        results;
      check Alcotest.(list string) "no invariant violations" [] (Obs.Engine.check report);
      check Alcotest.int "one region" 1 (List.length report.Obs.Engine.regions);
      let reg = List.hd report.Obs.Engine.regions in
      check Alcotest.int "every element became a task" 32 reg.Obs.Engine.tasks;
      check Alcotest.bool "team size within jobs" true (reg.Obs.Engine.domains <= max 1 jobs);
      (* The invariant the analyzer is built around, re-stated here
         explicitly rather than through Engine.check. *)
      check Alcotest.int "categories sum exactly to wall x domains"
        (reg.Obs.Engine.wall_ns * reg.Obs.Engine.domains)
        (Obs.Engine.cat_total reg.Obs.Engine.cats);
      List.iter
        (fun (name, v) ->
          check Alcotest.bool (Printf.sprintf "category %s >= 0 (jobs=%d)" name jobs) true
            (v >= 0))
        (Obs.Engine.cat_list reg.Obs.Engine.cats))
    [ 1; 2; 4; 8 ]

let test_nested_regions_each_exact () =
  let input = List.init 6 (fun i -> List.init 8 (fun j -> (8 * i) + j)) in
  let _, report =
    Obs.Engine.profile ~label:"outer" ~jobs:3 (fun () ->
        Util.Pool.parallel_map ~jobs:3 ~label:"outer"
          (fun xs -> Util.Pool.parallel_map ~jobs:2 ~label:"inner" busy_work xs)
          input)
  in
  check Alcotest.(list string) "nested fan-outs stay exact" [] (Obs.Engine.check report);
  check Alcotest.bool "outer and inner regions all recorded" true
    (List.length report.Obs.Engine.regions >= 7)

(* --- Memo classification: lookups = hits + misses + waits ----------- *)

let test_memo_stats_classification () =
  let memo : (int, int) Util.Memo.t = Util.Memo.create ~name:"test.engine.memo" 8 in
  let get k =
    Util.Memo.find_or_compute memo k (fun () ->
        ignore (Sys.opaque_identity (List.init 2000 Fun.id));
        k * 2)
  in
  (* 64 concurrent lookups of 4 keys: 4 misses, and every other lookup
     is a hit or an in-flight wait. *)
  ignore (Util.Pool.parallel_map ~jobs:8 (fun i -> get (i mod 4)) (List.init 64 Fun.id));
  let s = Util.Memo.stats memo in
  check Alcotest.string "table name" "test.engine.memo" s.Util.Memo.table;
  check Alcotest.int "all lookups counted" 64 s.Util.Memo.lookups;
  check Alcotest.int "one miss per key" 4 s.Util.Memo.misses;
  check Alcotest.int "lookups = hits + misses + waits" s.Util.Memo.lookups
    (s.Util.Memo.hits + s.Util.Memo.misses + s.Util.Memo.waits);
  check Alcotest.bool "waited lookups accumulated wait time" true
    (s.Util.Memo.waits = 0 || s.Util.Memo.wait_ns > 0);
  (* The named table also appears in the global roster. *)
  check Alcotest.bool "registered globally" true
    (List.exists
       (fun (m : Util.Eprof.memo_stats) -> m.table = "test.engine.memo" && m.lookups = 64)
       (Util.Eprof.memo_stats ()))

let test_memo_stats_off_recorder () =
  (* The satellite requirement: stats work with profiling off. *)
  check Alcotest.bool "recorder is off" false (Util.Eprof.enabled ());
  let memo : (string, int) Util.Memo.t = Util.Memo.create 4 in
  ignore (Util.Memo.find_or_compute memo "a" (fun () -> 1));
  ignore (Util.Memo.find_or_compute memo "a" (fun () -> 2));
  ignore (Util.Memo.find_or_compute memo "b" (fun () -> 3));
  let s = Util.Memo.stats memo in
  check Alcotest.string "anonymous table name" "<anon>" s.Util.Memo.table;
  check Alcotest.int "lookups" 3 s.Util.Memo.lookups;
  check Alcotest.int "hits" 1 s.Util.Memo.hits;
  check Alcotest.int "misses" 2 s.Util.Memo.misses;
  check Alcotest.int "waits" 0 s.Util.Memo.waits

(* --- Lock profiling: contended <= acquisitions ---------------------- *)

let test_lock_contention_counting () =
  let before = Util.Eprof.lock_stats () in
  let hist_before =
    match
      List.find_opt (fun (l : Util.Eprof.lock_stats) -> l.lock = "obs.metrics.hist") before
    with
    | Some l -> l
    | None -> Alcotest.fail "obs.metrics.hist lock not registered"
  in
  Util.Eprof.start ();
  let h = Obs.Metrics.histogram "test.engine.contention" in
  (* Hammer one histogram from 4 domains: plenty of acquisitions, and
     every one of them observed while recording. *)
  Util.Pool.parallel_iter ~jobs:4
    (fun i ->
      for k = 0 to 499 do
        Obs.Metrics.observe h (float_of_int ((i * 500) + k))
      done)
    (List.init 4 Fun.id);
  Util.Eprof.stop ();
  let after = Util.Eprof.lock_stats () in
  let hist_after =
    List.find (fun (l : Util.Eprof.lock_stats) -> l.lock = "obs.metrics.hist") after
  in
  let acq = hist_after.Util.Eprof.acquisitions - hist_before.Util.Eprof.acquisitions in
  let cont = hist_after.Util.Eprof.contended - hist_before.Util.Eprof.contended in
  check Alcotest.bool "all 2000 observes counted" true (acq >= 2000);
  check Alcotest.bool "contended <= acquisitions" true (cont <= acq && cont >= 0);
  check Alcotest.bool "wait accumulates only with contention" true
    (cont > 0 || hist_after.Util.Eprof.wait_ns = hist_before.Util.Eprof.wait_ns)

let test_lock_free_when_off () =
  let before = Util.Eprof.lock_stats () in
  let h = Obs.Metrics.histogram "test.engine.quiet" in
  for k = 0 to 99 do
    Obs.Metrics.observe h (float_of_int k)
  done;
  let after = Util.Eprof.lock_stats () in
  check Alcotest.bool "no counters advance with the recorder off" true
    (List.for_all2
       (fun (b : Util.Eprof.lock_stats) (a : Util.Eprof.lock_stats) ->
         b.lock = a.lock && b.acquisitions = a.acquisitions && b.contended = a.contended)
       before after)

(* --- Recorder-off manifest byte-parity at jobs 1 vs 4 --------------- *)

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

let test_manifest_parity_recorder_off_and_on () =
  check Alcotest.bool "recorder starts off" false (Util.Eprof.enabled ());
  let off_serial = collect_scrubbed ~jobs:1 in
  let off_par = collect_scrubbed ~jobs:4 in
  check Alcotest.string "recorder-off manifests byte-identical at jobs 1 vs 4" off_serial
    off_par;
  Util.Eprof.start ();
  let on_serial = collect_scrubbed ~jobs:1 in
  let on_par = collect_scrubbed ~jobs:4 in
  Util.Eprof.stop ();
  check Alcotest.string "recorder-on manifest matches recorder-off" off_serial on_serial;
  check Alcotest.string "recorder-on parity holds at jobs=4" off_serial on_par

(* --- JSON byte-stability ------------------------------------------- *)

(* Nothing reads engine JSON back, so the contract is on the writer:
   the same report always encodes to the same bytes, and those bytes
   re-parse and re-print unchanged. *)
let test_report_json_byte_stable () =
  let _, report = profile_map ~jobs:4 ~label:"stable" busy_work (List.init 16 Fun.id) in
  let s = Obs.Json.to_string (Obs.Engine.to_json report) in
  check Alcotest.string "encoding is deterministic" s
    (Obs.Json.to_string (Obs.Engine.to_json report));
  match Obs.Json.parse s with
  | Error e -> Alcotest.failf "engine report JSON does not re-parse: %s" e
  | Ok j -> check Alcotest.string "parse/print is byte-identical" s (Obs.Json.to_string j)

(* --- Standalone page ------------------------------------------------ *)

(* The --report-out page is the tables [rfh engine] prints, in the same
   order, plus the overhead bars — and opens offline.  Built from the
   blocks the command passes to the page. *)
let test_engine_page_standalone () =
  let reports =
    List.map
      (fun jobs -> snd (profile_map ~jobs ~label:"page" busy_work (List.init 8 Fun.id)))
      [ 1; 2 ]
  in
  let tables = Obs.Engine.tables reports in
  let html =
    Obs.Html_report.page ~title:"rfh engine report"
      (List.map (fun t -> Obs.Html_report.Table t) tables @ [ Obs.Html_report.engine_bars reports ])
  in
  check Alcotest.int "one <table per engine table" (List.length tables) (Helpers.count_sub html "<table");
  let captions =
    List.filter_map
      (fun line ->
        let p = "<caption>" in
        let n = String.length p in
        if String.length line > n && String.sub line 0 n = p then Some line else None)
      (String.split_on_char '\n' html)
  in
  check Alcotest.(list string) "captions are the printed titles, in order"
    (List.map
       (fun t ->
         let title = List.hd (String.split_on_char '\n' (Util.Table.render t)) in
         "<caption>" ^ Util.Table.escape_html title ^ "</caption>")
       tables)
    captions;
  check Alcotest.bool "per-region GC table present" true (Helpers.count_sub html "Per-region GC" = 2);
  List.iter
    (fun needle ->
      check Alcotest.int (Printf.sprintf "no external fetch (%s)" needle) 0 (Helpers.count_sub html needle))
    [ "http"; "src="; "href="; "<script" ]

(* --- Trace rows ----------------------------------------------------- *)

let test_trace_events_shape () =
  let _, report = profile_map ~jobs:2 ~label:"trace" busy_work (List.init 8 Fun.id) in
  let events = Obs.Engine.trace_events ~base_ns:report.Obs.Engine.epoch_ns report in
  check Alcotest.bool "has process metadata + slices" true (List.length events > 8);
  List.iter
    (fun ev ->
      match Obs.Json.member "pid" ev with
      | Some pid ->
        check Alcotest.(option int) "every engine row lives on the engine pid"
          (Some Obs.Engine.trace_pid) (Obs.Json.to_int pid)
      | None -> Alcotest.fail "trace event without pid")
    events;
  (* All rows rebased against the report's own epoch must be sane
     microsecond offsets within the profiled wall. *)
  List.iter
    (fun ev ->
      match Obs.Json.member "ts" ev with
      | Some ts ->
        let v = Option.get (Obs.Json.to_num ts) in
        check Alcotest.bool "ts within [0, wall]" true
          (v >= 0.0 && v <= float_of_int report.Obs.Engine.wall_ns /. 1e3)
      | None -> () (* metadata rows carry no ts *))
    events

let suite =
  [
    Alcotest.test_case "region accounting is exact" `Quick (isolated test_region_accounting);
    Alcotest.test_case "nested regions each exact" `Quick (isolated test_nested_regions_each_exact);
    Alcotest.test_case "memo stats classification" `Quick (isolated test_memo_stats_classification);
    Alcotest.test_case "memo stats with recorder off" `Quick (isolated test_memo_stats_off_recorder);
    Alcotest.test_case "lock contention counting" `Quick (isolated test_lock_contention_counting);
    Alcotest.test_case "locks cost nothing when off" `Quick (isolated test_lock_free_when_off);
    Alcotest.test_case "manifest byte-parity across jobs" `Quick
      (isolated test_manifest_parity_recorder_off_and_on);
    Alcotest.test_case "report JSON byte-stable" `Quick (isolated test_report_json_byte_stable);
    Alcotest.test_case "trace rows on the engine pid" `Quick (isolated test_trace_events_shape);
    Alcotest.test_case "engine page standalone" `Quick (isolated test_engine_page_standalone);
  ]
