(* why: differential root-cause analysis of two run manifests. *)

open Cmdliner

let cmd =
  let doc =
    "Differential root-cause analysis of two run manifests: metric deltas (IPC, normalized \
     energy, per-level RF energy), per-cause stall-share deltas and — with \
     $(b,--explain-a)/$(b,--explain-b) — per-live-range allocation decision flips, combined \
     into one deterministic ranked cause table.  Exits 0 when the analysis is produced (even \
     with zero causes), 1 when the attribution self-check fails, 2 when an input is missing \
     or unreadable."
  in
  let baseline_pos =
    let doc = "Baseline run manifest (JSON, as written by $(b,--manifest-out))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)
  in
  let candidate_pos =
    let doc = "Candidate run manifest to explain against the baseline." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE" ~doc)
  in
  let explain_a =
    Cli.file_flag "explain-a"
      "Baseline allocation-explain JSONL stream (from $(b,rfh explain --jsonl-out)); requires \
       $(b,--explain-b)."
  in
  let explain_b =
    Cli.file_flag "explain-b" "Candidate allocation-explain JSONL stream; requires $(b,--explain-a)."
  in
  let json_out =
    Cli.json_out
      "Write the machine-readable analysis (ranked causes, metric deltas, stall and explain \
       summaries, self-check verdict) to $(docv)."
  in
  let report_out =
    Cli.report_out ~doc:"Write a self-contained HTML root-cause report to $(docv)." ()
  in
  let top =
    Cli.top
      "Show only the $(docv) highest-ranked causes in the table ($(b,--json-out) always carries \
       all of them)."
  in
  let exit2 fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf
          "why: %s\nexit 2: an input is missing or unreadable (1 = self-check failure, 0 = \
           analysis produced).\n"
          msg;
        exit 2)
      fmt
  in
  let run baseline_path candidate_path explain_a explain_b json_out report_out top =
    let read_manifest what path =
      match Obs.Manifest.read_file ~path with
      | Ok m -> m
      | Error msg -> exit2 "cannot read %s manifest %s (%s)" what path msg
    in
    let baseline = read_manifest "baseline" baseline_path in
    let candidate = read_manifest "candidate" candidate_path in
    let explain =
      match (explain_a, explain_b) with
      | None, None -> None
      | Some a, Some b ->
        let load what path =
          match Obs.Explain.load_jsonl ~path with
          | Error msg -> exit2 "cannot read %s explain stream %s (%s)" what path msg
          | Ok (decisions, rejected) ->
            if rejected > 0 then
              Printf.eprintf "why: %d undecodable line%s skipped in %s\n" rejected
                (if rejected = 1 then "" else "s")
                path;
            decisions
        in
        let da = load "baseline" a and db = load "candidate" b in
        Some (Obs.Explain_diff.align ~a:da ~b:db)
      | _ -> exit2 "--explain-a and --explain-b must be given together"
    in
    let r = Obs.Rootcause.analyze ?explain ~baseline ~candidate () in
    let json = Cli.saved "why json" (Cli.json_file (Obs.Rootcause.to_json r)) json_out in
    Cli.emit ~label:"why report" ~title:"rfh why — differential root cause" ?report_out
      ([
         Cli.Page
           (Obs.Html_report.why_header ~baseline_label:baseline_path
              ~candidate_label:candidate_path r);
         Cli.Table (Obs.Rootcause.delta_table r);
         Cli.Table (Obs.Rootcause.to_table ?top r);
       ]
      @ json @ [ Cli.Report ] @ Cli.pages (Obs.Html_report.why_details r));
    (match Obs.Rootcause.check r with
    | [] -> ()
    | issues ->
      List.iter (fun i -> Printf.eprintf "why self-check: %s\n" i) issues;
      prerr_endline
        "why: FAILED — exit 1: the attribution self-check failed (0 = analysis produced, 2 = \
         input missing or unreadable).";
      exit 1);
    print_endline
      (Option.value (Cli.top_cause "why" r)
         ~default:"why: no causes — the runs are equivalent under every probe.")
  in
  Cmd.v (Cmd.info "why" ~doc ~exits:Cli.exits)
    Term.(
      const run $ baseline_pos $ candidate_pos $ explain_a $ explain_b $ json_out $ report_out
      $ top)
