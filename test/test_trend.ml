(* Tests for Obs.Trend (robust statistics, change-point segmentation,
   verdicts, the CI gate) and for the rfh trend --check exit-code
   contract, driven end-to-end through the built binary.

   The acceptance scenario from the issue is covered twice: a
   synthetic 12-record history with a 2x ns/run regression injected at
   record 8 must fail the gate naming the series and the change-point
   record/rev, and the same history without the injection must pass. *)

let check = Alcotest.check

(* --- Robust statistics -------------------------------------------- *)

let test_median_mad () =
  check (Alcotest.float 1e-9) "median odd" 3.0 (Obs.Trend.median [| 5.0; 1.0; 3.0 |]);
  check (Alcotest.float 1e-9) "median even" 2.5 (Obs.Trend.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check (Alcotest.float 1e-9) "median empty" 0.0 (Obs.Trend.median [||]);
  (* One wild outlier moves neither the median nor the MAD much. *)
  let xs = [| 10.0; 10.0; 11.0; 9.0; 10.0; 1000.0 |] in
  check (Alcotest.float 1e-9) "median shrugs at outlier" 10.0 (Obs.Trend.median xs);
  check Alcotest.bool "mad shrugs at outlier" true (Obs.Trend.mad xs <= 1.0)

let test_rolling_median () =
  let out = Obs.Trend.rolling_median ~window:3 [| 1.0; 100.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "first is itself" 1.0 out.(0);
  check (Alcotest.float 1e-9) "spike smoothed" 2.0 out.(2);
  check (Alcotest.float 1e-9) "tail window" 3.0 out.(4)

let test_sparkline () =
  check Alcotest.string "empty" "" (Obs.Trend.sparkline [||]);
  check Alcotest.string "flat is mid-block" "\xe2\x96\x84\xe2\x96\x84"
    (Obs.Trend.sparkline [| 5.0; 5.0 |]);
  check Alcotest.string "ramp uses low and high blocks" "\xe2\x96\x81\xe2\x96\x88"
    (Obs.Trend.sparkline [| 0.0; 1.0 |])

(* --- Synthetic series --------------------------------------------- *)

(* Deterministic sub-1% jitter so the tests exercise the noise path
   without depending on a PRNG. *)
let jitter = [| 0.2; -0.3; 0.1; -0.1; 0.3; -0.2; 0.0; 0.15; -0.25; 0.05; 0.1; -0.05 |]

let series_of values =
  {
    Obs.Trend.s_name = "test.series";
    s_dir = Obs.Trend.Lower_better;
    s_tol = 0.35;
    s_gated = true;
    points = Array.of_list (List.mapi (fun i v -> (i, v)) values);
  }

let flat_noise = List.init 12 (fun i -> 100.0 +. jitter.(i))

let stepped_2x = List.init 12 (fun i -> (if i < 8 then 100.0 else 200.0) +. jitter.(i))

let recovery = List.init 12 (fun i -> (if i < 8 then 200.0 else 100.0) +. jitter.(i))

let test_flat_is_stable () =
  let a = Obs.Trend.analyze (series_of flat_noise) in
  check Alcotest.(list int) "no change points" [] a.Obs.Trend.a_change_points;
  check Alcotest.string "verdict" "stable" (Obs.Trend.verdict_name a.Obs.Trend.a_verdict)

let test_step_is_regressed_at_8 () =
  let a = Obs.Trend.analyze (series_of stepped_2x) in
  check Alcotest.(list int) "change point at injection index" [ 8 ]
    a.Obs.Trend.a_change_points;
  check Alcotest.string "verdict" "regressed" (Obs.Trend.verdict_name a.Obs.Trend.a_verdict);
  check Alcotest.bool "shift is ~ +100%" true
    (a.Obs.Trend.a_shift > 0.9 && a.Obs.Trend.a_shift < 1.1)

let test_recovery_is_improved () =
  let a = Obs.Trend.analyze (series_of recovery) in
  check Alcotest.(list int) "change point found" [ 8 ] a.Obs.Trend.a_change_points;
  check Alcotest.string "verdict" "improved" (Obs.Trend.verdict_name a.Obs.Trend.a_verdict)

let test_higher_better_flips () =
  let s = { (series_of stepped_2x) with Obs.Trend.s_dir = Obs.Trend.Higher_better } in
  let a = Obs.Trend.analyze s in
  check Alcotest.string "an upward step in IPC is an improvement" "improved"
    (Obs.Trend.verdict_name a.Obs.Trend.a_verdict)

let test_noisy_series () =
  (* Spread ~40% of the median, no sustained level: noisy, not a
     verdict either way. *)
  let values = List.init 12 (fun i -> if i mod 2 = 0 then 60.0 else 140.0) in
  let a = Obs.Trend.analyze (series_of values) in
  check Alcotest.string "verdict" "noisy" (Obs.Trend.verdict_name a.Obs.Trend.a_verdict)

(* --- History -> series -> gate ------------------------------------ *)

let host i =
  {
    Obs.Host.cores = 8;
    os = "Unix";
    ocaml = "5.1.1";
    git_rev = Printf.sprintf "rev%03d" i;
    git_dirty = false;
  }

let record i ~ns =
  {
    Obs.History.timestamp = Printf.sprintf "2026-08-%02dT00:00:00Z" (i + 1);
    source = "perfgate";
    host = host i;
    jobs = 1;
    wall_s = 30.0;
    benches =
      [
        {
          Obs.History.hb_bench = "VectorAdd";
          hb_ipc = 0.25 +. (jitter.(i mod 12) /. 1000.0);
          hb_norm_energy = 0.53;
          hb_stalls = [];
        };
      ];
    perfgate =
      Some
        {
          Obs.History.pg_ns_per_run = ns;
          pg_p90_ns = ns *. 1.2;
          pg_minor_words = 320.0;
          pg_runs = 5;
          pg_promoted_words = None;
          pg_major_words = None;
        };
  }

let clean_history = List.mapi (fun i ns -> record i ~ns) flat_noise

let regressed_history = List.mapi (fun i ns -> record i ~ns) stepped_2x

let test_series_extraction () =
  let series = Obs.Trend.series_of_history regressed_history in
  let names = List.map (fun s -> s.Obs.Trend.s_name) series in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true (List.mem expected names))
    [
      "bench.VectorAdd.ipc"; "bench.VectorAdd.norm_energy"; "perfgate.ns_per_run";
      "perfgate.p90_ns"; "perfgate.minor_words"; "wall_s";
    ];
  check Alcotest.bool "no empty series (promoted words absent)" false
    (List.exists (fun s -> s.Obs.Trend.s_name = "perfgate.promoted_words") series)

let test_gate_regression_names_series_and_rev () =
  let g = Obs.Trend.gate regressed_history in
  check Alcotest.int "exit 1" 1 g.Obs.Trend.g_exit;
  match
    List.find_opt
      (fun (f : Obs.Trend.failure) -> f.Obs.Trend.f_series = "perfgate.ns_per_run")
      g.Obs.Trend.g_failures
  with
  | None -> Alcotest.fail "ns_per_run regression not reported"
  | Some f ->
    check Alcotest.int "change point at record 8" 8 f.Obs.Trend.f_index;
    check Alcotest.string "offending record's rev" "rev008" f.Obs.Trend.f_rev;
    check Alcotest.string "offending record's source" "perfgate" f.Obs.Trend.f_source;
    check Alcotest.int "offending record's jobs" 1 f.Obs.Trend.f_jobs;
    check Alcotest.bool "before/after medians bracket the step" true
      (f.Obs.Trend.f_before < 110.0 && f.Obs.Trend.f_after > 190.0)

let test_gate_clean_history_passes () =
  let g = Obs.Trend.gate clean_history in
  check Alcotest.int "exit 0" 0 g.Obs.Trend.g_exit;
  check Alcotest.int "no failures" 0 (List.length g.Obs.Trend.g_failures);
  check Alcotest.bool "analyses still produced" true (g.Obs.Trend.g_analyses <> [])

let test_gate_short_history_is_exit_2 () =
  let g = Obs.Trend.gate (List.filteri (fun i _ -> i < 2) clean_history) in
  check Alcotest.int "exit 2" 2 g.Obs.Trend.g_exit;
  (* An ungated series regressing must not fail the gate. *)
  let ungated =
    List.mapi
      (fun i ns -> { (record i ~ns) with Obs.History.perfgate = None; wall_s = ns })
      stepped_2x
  in
  check Alcotest.int "ungated wall_s regression stays exit 0" 0
    (Obs.Trend.gate ungated).Obs.Trend.g_exit

(* Same self-containment contract as the run report: the dashboard must
   open from disk offline, so no scripts and no external fetches; the
   change-point annotations must carry the offending git rev.  The page
   is built from the blocks [rfh trend --html-out] writes: the verdict
   header, the table the command prints and the note. *)
let test_trend_page_standalone () =
  let g = Obs.Trend.gate regressed_history in
  let html =
    Obs.Html_report.page ~title:"rfh trend dashboard"
      [
        Obs.Html_report.trend_header ~records:regressed_history g;
        Obs.Html_report.Table
          (Obs.Trend.table ~history_path:"baselines/history.jsonl" ~rejected:1 regressed_history g);
        Obs.Html_report.trend_note;
      ]
  in
  let has needle =
    let n = String.length needle and len = String.length html in
    let rec go i = i + n <= len && (String.sub html i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "is a complete document" true
    (has "<!DOCTYPE html>" && has "</html>");
  check Alcotest.bool "names the regressed series" true (has "perfgate.ns_per_run");
  check Alcotest.bool "annotates the change-point rev" true (has "rev008");
  check Alcotest.bool "reports skipped lines" true (has "1 undecodable line");
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "no external fetch (%s)" needle) false (has needle))
    [ "http://"; "https://"; "src="; "href="; "<script" ]

(* --- rfh trend --check end-to-end --------------------------------- *)

let rfh_exe = "../bin/rfh.exe"

let write_history path records =
  (try Sys.remove path with Sys_error _ -> ());
  List.iter (fun r -> Obs.History.append ~path r) records

let run_check path =
  Sys.command
    (Printf.sprintf "%s trend --history %s --check > %s 2>&1"
       (Filename.quote rfh_exe) (Filename.quote path)
       (Filename.quote (path ^ ".out")))

let output_of path = In_channel.with_open_text (path ^ ".out") In_channel.input_all

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let with_temp_history f () =
  if not (Sys.file_exists rfh_exe) then
    Alcotest.skip ()
  else begin
    let path = Filename.temp_file "trend" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove path;
        try Sys.remove (path ^ ".out") with Sys_error _ -> ())
      (fun () -> f path)
  end

let test_cli_check_regression path =
  write_history path regressed_history;
  check Alcotest.int "exit 1 on injected 2x step" 1 (run_check path);
  let out = output_of path in
  check Alcotest.bool "names the offending series" true
    (contains out "perfgate.ns_per_run");
  check Alcotest.bool "names the change-point record" true (contains out "record 8");
  check Alcotest.bool "names the change-point rev" true (contains out "rev008");
  (* The failure line must name the run shape that produced the
     offending record, so a diagnosis is reproducible. *)
  check Alcotest.bool "names the record's source" true (contains out "source perfgate");
  check Alcotest.bool "names the record's jobs" true (contains out "jobs 1")

let test_cli_check_why path =
  write_history path regressed_history;
  let code =
    Sys.command
      (Printf.sprintf "%s trend --history %s --check --why > %s 2>&1"
         (Filename.quote rfh_exe) (Filename.quote path)
         (Filename.quote (path ^ ".out")))
  in
  check Alcotest.int "--why keeps exit 1" 1 code;
  let out = output_of path in
  check Alcotest.bool "diagnoses the offending record pair" true
    (contains out "trend why: record 7 vs 8 (source perfgate, jobs 1)")

let test_cli_check_clean path =
  write_history path clean_history;
  check Alcotest.int "exit 0 without injection" 0 (run_check path)

let test_cli_check_short path =
  write_history path (List.filteri (fun i _ -> i < 2) clean_history);
  check Alcotest.int "exit 2 under 3 records" 2 (run_check path)

let suite =
  [
    Alcotest.test_case "median and MAD" `Quick test_median_mad;
    Alcotest.test_case "rolling median" `Quick test_rolling_median;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "flat+noise -> stable" `Quick test_flat_is_stable;
    Alcotest.test_case "2x step at 8 -> regressed" `Quick test_step_is_regressed_at_8;
    Alcotest.test_case "recovery -> improved" `Quick test_recovery_is_improved;
    Alcotest.test_case "direction flips the verdict" `Quick test_higher_better_flips;
    Alcotest.test_case "high spread -> noisy" `Quick test_noisy_series;
    Alcotest.test_case "series extracted from history" `Quick test_series_extraction;
    Alcotest.test_case "gate names series+record+rev" `Quick
      test_gate_regression_names_series_and_rev;
    Alcotest.test_case "gate passes clean history" `Quick test_gate_clean_history_passes;
    Alcotest.test_case "gate exit 2 on short history" `Quick
      test_gate_short_history_is_exit_2;
    Alcotest.test_case "trend dashboard standalone" `Quick test_trend_page_standalone;
    Alcotest.test_case "rfh trend --check exit 1" `Quick
      (with_temp_history test_cli_check_regression);
    Alcotest.test_case "rfh trend --check --why diagnosis" `Quick
      (with_temp_history test_cli_check_why);
    Alcotest.test_case "rfh trend --check exit 0" `Quick (with_temp_history test_cli_check_clean);
    Alcotest.test_case "rfh trend --check exit 2" `Quick (with_temp_history test_cli_check_short);
  ]
