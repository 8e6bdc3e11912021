(* Tests for the rfh why differential root-cause engine:
   Obs.Explain_diff alignment and loading, Obs.Stall_diff /
   Obs.Rootcause over real collected manifests, and the CLI exit-code
   contract (0 analysis / 1 self-check failure / 2 missing input)
   end-to-end through the built binary.

   The acceptance scenario from the issue is covered both ways:
   flipping exactly one allocation decision between two otherwise
   identical explain streams must rank that move as the top cause, and
   bumping exactly one stall-cause count between two otherwise
   identical manifests must rank that stall cause as the top cause —
   byte-identically across jobs settings. *)

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- Synthetic decisions for Explain_diff ------------------------- *)

let cand level savings verdict = { Obs.Explain.level; savings; verdict }

let dec ?(kernel = "K") ?(reg = "%r1") ?(outcome = Obs.Explain.To_orf { entry = 0; shortened = 0 })
    seq =
  {
    Obs.Explain.seq;
    kernel;
    reg;
    kind = "write_unit";
    strand = 0;
    width = 1;
    first = seq * 3;
    last = (seq * 3) + 2;
    defs = [ seq * 3 ];
    covered = [ ((seq * 3) + 1, 0) ];
    dropped_reads = 0;
    mrf_copy = false;
    candidates =
      [
        cand "lrf" (-1.0) Obs.Explain.Negative_savings;
        cand "orf" 24.0
          (match outcome with
          | Obs.Explain.To_orf _ -> Obs.Explain.Chosen
          | _ -> Obs.Explain.Negative_savings);
      ];
    outcome;
  }

let stream = List.init 6 (fun i -> dec ~reg:(Printf.sprintf "%%r%d" i) i)

let flip_one ds =
  List.mapi
    (fun i (d : Obs.Explain.decision) ->
      if i = 2 then { d with Obs.Explain.outcome = Obs.Explain.To_mrf } else d)
    ds

let flip_names (p : Obs.Explain_diff.pair) =
  List.map Obs.Explain_diff.flip_name p.Obs.Explain_diff.p_flips

let test_align_identical () =
  let d = Obs.Explain_diff.align ~a:stream ~b:stream in
  check Alcotest.int "all aligned" 6 d.Obs.Explain_diff.d_aligned;
  check Alcotest.int "no changed pairs" 0 (List.length d.Obs.Explain_diff.d_pairs);
  check Alcotest.(list string) "self-check passes" [] (Obs.Explain_diff.check d)

let test_align_single_flip () =
  let d = Obs.Explain_diff.align ~a:stream ~b:(flip_one stream) in
  check Alcotest.int "still all aligned" 6 d.Obs.Explain_diff.d_aligned;
  (match d.Obs.Explain_diff.d_pairs with
  | [ p ] ->
    check Alcotest.(list string) "exactly the level flip" [ "moved orf -> mrf" ]
      (flip_names p);
    check Alcotest.string "flipped register" "%r2" p.Obs.Explain_diff.p_key.Obs.Explain_diff.k_reg
  | pairs -> Alcotest.failf "expected exactly 1 changed pair, got %d" (List.length pairs));
  (match d.Obs.Explain_diff.d_kernels with
  | [ k ] -> (
    check Alcotest.int "kernel changed count" 1 k.Obs.Explain_diff.ks_changed;
    match k.Obs.Explain_diff.ks_moves with
    | [ m ] ->
      check Alcotest.string "move from" "orf" m.Obs.Explain_diff.m_from;
      check Alcotest.string "move to" "mrf" m.Obs.Explain_diff.m_to;
      check Alcotest.int "move count" 1 m.Obs.Explain_diff.m_count
    | moves -> Alcotest.failf "expected 1 move bucket, got %d" (List.length moves))
  | ks -> Alcotest.failf "expected 1 kernel, got %d" (List.length ks));
  check Alcotest.(list string) "self-check passes" [] (Obs.Explain_diff.check d)

(* Alignment keys on live-range identity, so input file order must not
   matter — the same guarantee that makes the diff jobs-independent. *)
let test_align_order_independent () =
  let b = flip_one stream in
  let d1 = Obs.Explain_diff.align ~a:stream ~b in
  let d2 = Obs.Explain_diff.align ~a:(List.rev stream) ~b:(List.rev b) in
  let summary d =
    ( d.Obs.Explain_diff.d_aligned,
      List.concat_map flip_names d.Obs.Explain_diff.d_pairs,
      List.map
        (fun (k : Obs.Explain_diff.kernel_stats) ->
          (k.Obs.Explain_diff.ks_kernel, k.Obs.Explain_diff.ks_changed))
        d.Obs.Explain_diff.d_kernels )
  in
  check Alcotest.bool "reversed inputs align identically" true (summary d1 = summary d2)

let test_align_unmatched () =
  let b = List.filteri (fun i _ -> i < 4) stream in
  let d = Obs.Explain_diff.align ~a:stream ~b in
  check Alcotest.int "aligned" 4 d.Obs.Explain_diff.d_aligned;
  check Alcotest.int "only_a" 2 (List.length d.Obs.Explain_diff.d_only_a);
  check Alcotest.int "only_b" 0 (List.length d.Obs.Explain_diff.d_only_b);
  check Alcotest.(list string) "accounting holds" [] (Obs.Explain_diff.check d)

let test_load_jsonl_garbage_tolerant () =
  let path = Filename.temp_file "why" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun (d : Obs.Explain.decision) ->
          output_string oc (Obs.Json.to_string (Obs.Explain.to_json d));
          output_char oc '\n')
        stream;
      output_string oc "this is not json\n";
      output_string oc "{\"ev\":\"wrong-schema\"}\n";
      output_string oc "\n";
      close_out oc;
      match Obs.Explain.load_jsonl ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok (decisions, rejected) ->
        check Alcotest.int "decodable lines loaded" 6 (List.length decisions);
        check Alcotest.int "garbage lines counted, blank skipped" 2 rejected);
  match Obs.Explain.load_jsonl ~path:"/nonexistent/explain.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an Error"

(* --- Rootcause over real manifests -------------------------------- *)

let collect_manifest ?(jobs = 1) () =
  let opts =
    { (Experiments.Options.default ()) with Experiments.Options.warps = 4; seed = 0x5eed }
  in
  let opts = Experiments.Options.with_benchmarks opts [ "mm" ] in
  Experiments.Run_manifest.collect (Experiments.Options.with_jobs opts jobs)

(* Bump the smallest stall cause by +37 warp-cycles: the induced share
   delta dominates every other cause's renormalization shift, so it
   must rank first. *)
let bump_min_stall (m : Obs.Manifest.t) =
  match m.Obs.Manifest.benches with
  | [] -> assert false
  | b :: rest ->
    let victim, _ =
      List.fold_left
        (fun (bc, bn) (c, n) -> if n < bn then (c, n) else (bc, bn))
        ("", max_int) b.Obs.Manifest.stalls
    in
    let stalls =
      List.map (fun (c, n) -> if c = victim then (c, n + 37) else (c, n)) b.Obs.Manifest.stalls
    in
    ({ m with Obs.Manifest.benches = { b with Obs.Manifest.stalls = stalls } :: rest }, victim)

let test_rootcause_identical () =
  let m = collect_manifest () in
  let r = Obs.Rootcause.analyze ~baseline:m ~candidate:m () in
  check Alcotest.int "no causes between identical runs" 0 (List.length r.Obs.Rootcause.r_causes);
  check Alcotest.(list string) "self-check passes" [] (Obs.Rootcause.check r);
  check Alcotest.bool "metric deltas still listed" true (r.Obs.Rootcause.r_metrics <> [])

let test_rootcause_stall_perturbation_top_cause () =
  let m = collect_manifest () in
  let m', victim = bump_min_stall m in
  let r = Obs.Rootcause.analyze ~baseline:m ~candidate:m' () in
  check Alcotest.(list string) "self-check passes" [] (Obs.Rootcause.check r);
  (match Obs.Rootcause.top_cause r with
  | None -> Alcotest.fail "perturbation produced no cause"
  | Some c ->
    check Alcotest.string "top cause is the bumped stall" ("stall " ^ victim)
      c.Obs.Rootcause.c_what;
    check Alcotest.bool "cause is quantified with counts" true
      (contains c.Obs.Rootcause.c_delta "warp-cycles"));
  (* Byte-determinism of the full analysis across repeated runs. *)
  let r2 = Obs.Rootcause.analyze ~baseline:m ~candidate:m' () in
  check Alcotest.string "analysis is byte-deterministic"
    (Obs.Json.to_string (Obs.Rootcause.to_json r))
    (Obs.Json.to_string (Obs.Rootcause.to_json r2));
  check Alcotest.string "ranked table is byte-deterministic"
    (Util.Table.render (Obs.Rootcause.to_table r))
    (Util.Table.render (Obs.Rootcause.to_table r2))

(* Manifest collection is byte-identical at any --jobs, so the ranked
   causes must be too. *)
let test_rootcause_jobs_parity () =
  let base = collect_manifest ~jobs:1 () in
  let c1, _ = bump_min_stall (collect_manifest ~jobs:1 ()) in
  let c4, _ = bump_min_stall (collect_manifest ~jobs:4 ()) in
  let table jobs_manifest =
    Util.Table.render
      (Obs.Rootcause.to_table (Obs.Rootcause.analyze ~baseline:base ~candidate:jobs_manifest ()))
  in
  check Alcotest.string "jobs 1 vs 4 rank byte-identically" (table c1) (table c4)

let test_rootcause_explain_perturbation_top_cause () =
  let m = collect_manifest () in
  let ed = Obs.Explain_diff.align ~a:stream ~b:(flip_one stream) in
  let r = Obs.Rootcause.analyze ~explain:ed ~baseline:m ~candidate:m () in
  check Alcotest.(list string) "self-check passes" [] (Obs.Rootcause.check r);
  match Obs.Rootcause.top_cause r with
  | None -> Alcotest.fail "flip produced no cause"
  | Some c ->
    check Alcotest.string "top cause is the moved range" "moved orf -> mrf"
      c.Obs.Rootcause.c_what;
    check Alcotest.string "alloc kind" "alloc" (Obs.Rootcause.kind_name c.Obs.Rootcause.c_kind)

let test_stall_diff_invariants () =
  let m = collect_manifest () in
  let m', _ = bump_min_stall m in
  let d = Obs.Stall_diff.diff ~baseline:m ~current:m' in
  check Alcotest.(list string) "invariants hold" [] (Obs.Stall_diff.check d);
  match d.Obs.Stall_diff.s_benches with
  | [ b ] ->
    check Alcotest.int "budget delta is the bump" 37
      (b.Obs.Stall_diff.sb_total_b - b.Obs.Stall_diff.sb_total_a)
  | bs -> Alcotest.failf "expected 1 bench, got %d" (List.length bs)

(* BinomialOptions' residency in baselines/default.json: the warp whose
   last issue ends the run never leaves the active set, so entries =
   exits + 1.  The mean is per entry on every surface. *)
let test_mean_residency_per_entry () =
  let m = collect_manifest () in
  let b = List.hd m.Obs.Manifest.benches in
  let sched =
    { b.Obs.Manifest.sched with Obs.Manifest.entries = 8; exits = 7; resident_cycles = 15_935 }
  in
  check (Alcotest.float 0.0) "resident cycles / entries" 1991.875
    (Obs.Manifest.mean_residency sched);
  check (Alcotest.float 0.0) "no entries" 0.0
    (Obs.Manifest.mean_residency { sched with Obs.Manifest.entries = 0 });
  let m' = { m with Obs.Manifest.benches = [ { b with Obs.Manifest.sched } ] } in
  match (Obs.Stall_diff.diff ~baseline:m' ~current:m').Obs.Stall_diff.s_benches with
  | [ d ] ->
    check
      Alcotest.(pair (float 0.0) (float 0.0))
      "why reports the same mean" (1991.875, 1991.875)
      d.Obs.Stall_diff.sb_sched.Obs.Stall_diff.sd_mean_residency
  | ds -> Alcotest.failf "expected 1 bench, got %d" (List.length ds)

(* --- rfh why / baseline check --why end-to-end -------------------- *)

let rfh_exe = "../bin/rfh.exe"

let sh fmt = Printf.ksprintf (fun cmd -> Sys.command cmd) fmt

let read_file path = In_channel.with_open_text path In_channel.input_all

let with_temp_dir f () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "why" ".d" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () -> f dir)
  end

let gen_fixtures dir =
  let a_json = Filename.concat dir "a.json" in
  let a_jsonl = Filename.concat dir "a.jsonl" in
  check Alcotest.int "record baseline manifest" 0
    (sh "%s baseline record --warps 4 -b mm --baseline %s > /dev/null" rfh_exe a_json);
  check Alcotest.int "record explain stream" 0
    (sh "%s explain mm --warps 4 --jsonl-out %s > /dev/null" rfh_exe a_jsonl);
  (a_json, a_jsonl)

(* Flip the first ORF placement to MRF — the same single-decision
   perturbation the why-smoke CI target applies with sed. *)
let perturb_explain src dst =
  let text = read_file src in
  let needle = "\"to\":\"orf\"" in
  let idx =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length text then Alcotest.fail "no ORF outcome in stream"
      else if String.sub text i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  let out =
    String.sub text 0 idx ^ "\"to\":\"mrf\""
    ^ String.sub text (idx + String.length needle)
        (String.length text - idx - String.length needle)
  in
  Out_channel.with_open_text dst (fun oc -> Out_channel.output_string oc out)

let test_cli_identical dir =
  let a_json, a_jsonl = gen_fixtures dir in
  let out = Filename.concat dir "out.txt" in
  check Alcotest.int "exit 0 on identical runs" 0
    (sh "%s why %s %s --explain-a %s --explain-b %s > %s 2>&1" rfh_exe a_json a_json a_jsonl
       a_jsonl out);
  check Alcotest.bool "says no causes" true (contains (read_file out) "no causes")

let test_cli_flip_is_top_cause dir =
  let a_json, a_jsonl = gen_fixtures dir in
  let b_jsonl = Filename.concat dir "b.jsonl" in
  perturb_explain a_jsonl b_jsonl;
  let run n =
    let out = Filename.concat dir (Printf.sprintf "out%d.txt" n) in
    let json = Filename.concat dir (Printf.sprintf "why%d.json" n) in
    check Alcotest.int "exit 0" 0
      (sh "%s why %s %s --explain-a %s --explain-b %s --json-out %s > %s 2>&1" rfh_exe a_json
         a_json a_jsonl b_jsonl json out);
    (read_file out, read_file json)
  in
  let out1, json1 = run 1 and out2, json2 = run 2 in
  check Alcotest.bool "names the flipped move as top cause" true
    (contains out1 "top cause" && contains out1 "moved orf -> mrf");
  check Alcotest.bool "json self-check ok" true (contains json1 "\"check_ok\":true");
  check Alcotest.string "json byte-identical across runs" json1 json2;
  (* Strip the differing --json-out path echo lines before comparing. *)
  let strip s =
    String.concat "\n"
      (List.filter (fun l -> not (contains l "why json ->")) (String.split_on_char '\n' s))
  in
  check Alcotest.string "table byte-identical across runs" (strip out1) (strip out2)

let test_cli_report_out dir =
  let a_json, a_jsonl = gen_fixtures dir in
  let b_jsonl = Filename.concat dir "b.jsonl" in
  perturb_explain a_jsonl b_jsonl;
  let html = Filename.concat dir "why.html" in
  check Alcotest.int "exit 0" 0
    (sh "%s why %s %s --explain-a %s --explain-b %s --report-out %s > /dev/null 2>&1" rfh_exe
       a_json a_json a_jsonl b_jsonl html);
  let page = read_file html in
  check Alcotest.bool "complete standalone document" true
    (contains page "<!DOCTYPE html>" && contains page "</html>");
  check Alcotest.bool "renders the ranked cause" true (contains page "moved orf -&gt; mrf");
  check Alcotest.bool "self-check banner" true (contains page "self-check passed");
  (* Same order as the command prints: deltas first, then causes. *)
  (match
     ( Helpers.find_sub page "<caption>Metric deltas</caption>",
       Helpers.find_sub page "<caption>Ranked causes</caption>" )
   with
  | Some d, Some c -> check Alcotest.bool "metric deltas before ranked causes" true (d < c)
  | _ -> Alcotest.fail "why page lacks the metric-delta or ranked-cause table");
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "no external fetch (%s)" needle) false
        (contains page needle))
    [ "http://"; "https://"; "src="; "<script" ]

let test_cli_exit_2 dir =
  let a_json, a_jsonl = gen_fixtures dir in
  check Alcotest.int "missing manifest is exit 2" 2
    (sh "%s why %s/nope.json %s > /dev/null 2>&1" rfh_exe dir a_json);
  check Alcotest.int "lone --explain-a is exit 2" 2
    (sh "%s why %s %s --explain-a %s > /dev/null 2>&1" rfh_exe a_json a_json a_jsonl);
  let err = Filename.concat dir "err.txt" in
  check Alcotest.int "a directory for a manifest is exit 2" 2
    (sh "%s why %s %s > /dev/null 2> %s" rfh_exe dir dir err);
  check Alcotest.bool "says it is a directory" true (contains (read_file err) "Is a directory")

let test_cli_garbage_stream dir =
  let a_json, a_jsonl = gen_fixtures dir in
  let b_jsonl = Filename.concat dir "b.jsonl" in
  Out_channel.with_open_text b_jsonl (fun oc ->
      Out_channel.output_string oc (read_file a_jsonl);
      Out_channel.output_string oc "not json at all\n{\"half\":\n");
  let out = Filename.concat dir "out.txt" in
  check Alcotest.int "garbage lines do not fail the analysis" 0
    (sh "%s why %s %s --explain-a %s --explain-b %s > %s 2>&1" rfh_exe a_json a_json a_jsonl
       b_jsonl out);
  let text = read_file out in
  check Alcotest.bool "reports skipped lines" true (contains text "undecodable line");
  check Alcotest.bool "decodable part still aligns clean" true (contains text "no causes")

let test_cli_baseline_check_why dir =
  let a_json, _ = gen_fixtures dir in
  let golden = Filename.concat dir "golden.json" in
  (match Obs.Manifest.read_file ~path:a_json with
  | Error msg -> Alcotest.failf "cannot read fixture manifest: %s" msg
  | Ok m ->
    let m', _ = bump_min_stall m in
    Obs.Manifest.write_file ~path:golden m');
  let out = Filename.concat dir "out.txt" in
  let viol = Filename.concat dir "violations.json" in
  check Alcotest.int "perturbed golden fails with exit 1" 1
    (sh "%s baseline check --warps 4 -b mm --baseline %s --why --json-out %s > %s 2>&1"
       rfh_exe golden viol out);
  let text = read_file out in
  check Alcotest.bool "ranked diagnosis emitted on failure" true
    (contains text "baseline why: top cause" && contains text "stall ");
  let vjson = read_file viol in
  check Alcotest.bool "violations json records the failure" true
    (contains vjson "\"ok\":false" && contains vjson "stalls");
  (* The clean golden must keep exit 0 and write ok:true. *)
  check Alcotest.int "clean golden stays exit 0" 0
    (sh "%s baseline check --warps 4 -b mm --baseline %s --json-out %s > /dev/null 2>&1"
       rfh_exe a_json viol);
  check Alcotest.bool "violations json ok on success" true
    (contains (read_file viol) "\"ok\":true")

let suite =
  [
    Alcotest.test_case "align: identical streams" `Quick test_align_identical;
    Alcotest.test_case "align: single flip classified" `Quick test_align_single_flip;
    Alcotest.test_case "align: input order independent" `Quick test_align_order_independent;
    Alcotest.test_case "align: unmatched accounted" `Quick test_align_unmatched;
    Alcotest.test_case "load_jsonl garbage tolerant" `Quick test_load_jsonl_garbage_tolerant;
    Alcotest.test_case "rootcause: identical runs" `Quick test_rootcause_identical;
    Alcotest.test_case "rootcause: stall bump is top cause" `Quick
      test_rootcause_stall_perturbation_top_cause;
    Alcotest.test_case "rootcause: jobs 1 vs 4 parity" `Quick test_rootcause_jobs_parity;
    Alcotest.test_case "rootcause: decision flip is top cause" `Quick
      test_rootcause_explain_perturbation_top_cause;
    Alcotest.test_case "stall_diff invariants" `Quick test_stall_diff_invariants;
    Alcotest.test_case "rfh why: identical runs" `Quick (with_temp_dir test_cli_identical);
    Alcotest.test_case "rfh why: flip ranked #1, deterministic" `Quick
      (with_temp_dir test_cli_flip_is_top_cause);
    Alcotest.test_case "rfh why: standalone HTML report" `Quick
      (with_temp_dir test_cli_report_out);
    Alcotest.test_case "rfh why: exit 2 contract" `Quick (with_temp_dir test_cli_exit_2);
    Alcotest.test_case "rfh why: garbage-tolerant streams" `Quick
      (with_temp_dir test_cli_garbage_stream);
    Alcotest.test_case "rfh baseline check --why" `Quick
      (with_temp_dir test_cli_baseline_check_why);
    Alcotest.test_case "mean residency per entry" `Quick test_mean_residency_per_entry;
  ]
