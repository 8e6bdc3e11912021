(* trend: drift analysis over the cross-run performance history. *)

open Cmdliner

(* One diagnosis per offending record: diff it against the nearest
   earlier record with the same source (same run shape), falling back
   to the immediate predecessor. *)
let why_failures (recs : Obs.History.t array) (g : Obs.Trend.gate_result) =
  let indices =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Obs.Trend.failure) ->
           if f.Obs.Trend.f_index > 0 then Some f.Obs.Trend.f_index else None)
         g.Obs.Trend.g_failures)
  in
  List.iter
    (fun idx ->
      let after = recs.(idx) in
      let rec find i =
        if i < 0 then idx - 1
        else if recs.(i).Obs.History.source = after.Obs.History.source then i
        else find (i - 1)
      in
      let before_idx = find (idx - 1) in
      let before = recs.(before_idx) in
      let r = Obs.Rootcause.of_history ~before ~after in
      Printf.eprintf "trend why: record %d vs %d (source %s, jobs %d)\n" before_idx idx
        after.Obs.History.source after.Obs.History.jobs;
      prerr_endline (Util.Table.render (Obs.Rootcause.to_table ~top:5 r));
      Option.iter prerr_endline (Cli.top_cause "trend why" r))
    indices

let cmd =
  let doc =
    "Analyze the cross-run performance history for sustained drift: robust per-series \
     statistics (median/MAD), change-point segmentation and a stable/improved/regressed/\
     noisy verdict per series.  With $(b,--check), gate CI on it."
  in
  let history =
    let doc =
      "History JSONL file, appended to by the perfgate and any command's $(b,--history-out)."
    in
    Arg.(value & opt string "baselines/history.jsonl" & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let html_out =
    Cli.file_flag "html-out"
      "Write a self-contained HTML trend dashboard (the gate verdict and the table) to $(docv)."
  in
  let check =
    let doc =
      "Gate mode: exit 1 when any gated series shows a sustained regression, 2 when the \
       history holds fewer than 3 records (0 = clean)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let why =
    Cli.why
      "With $(b,--check), on failure also print a ranked root-cause diagnosis to stderr: each \
       offending record is diffed against the nearest earlier record with the same source.  \
       Exit codes are unchanged."
  in
  let run history_path html_out check why csv =
    let records, rejected = Obs.History.load ~path:history_path in
    let recs = Array.of_list records in
    let g = Obs.Trend.gate records in
    Cli.emit ~csv ~label:"trend dashboard" ~title:"rfh trend dashboard" ?report_out:html_out
      [
        Cli.Page (Obs.Html_report.trend_header ~records g);
        Cli.Table (Obs.Trend.table ~history_path ~rejected records g);
        Cli.Page Obs.Html_report.trend_note;
        Cli.Report;
      ];
    (* Exit-code contract (documented in docs/observability.md): without
       --check the command always exits 0; with it, 0 = no sustained
       drift in a gated series, 1 = drift (stderr names each offending
       series with its change-point record and rev), 2 = fewer than 3
       records. *)
    if check then
      match g.Obs.Trend.g_exit with
      | 0 -> print_endline "trend check: OK — no sustained drift in any gated series."
      | 2 ->
        Printf.eprintf
          "trend check: only %d record%s in %s\n\
           exit 2: need at least 3 history records to judge drift (1 = drift, 0 = clean).\n"
          (Array.length recs)
          (if Array.length recs = 1 then "" else "s")
          history_path;
        exit 2
      | _ ->
        List.iter
          (fun (f : Obs.Trend.failure) ->
            Printf.eprintf
              "trend check: %s regressed %.4g -> %.4g at record %d (rev %s, source %s, jobs %d)\n"
              f.Obs.Trend.f_series f.Obs.Trend.f_before f.Obs.Trend.f_after f.Obs.Trend.f_index
              (Obs.Host.short_rev f.Obs.Trend.f_rev) f.Obs.Trend.f_source f.Obs.Trend.f_jobs)
          g.Obs.Trend.g_failures;
        if why then why_failures recs g;
        prerr_endline
          "trend check: FAILED — exit 1: a gated series shows a sustained regression \
           (0 = clean, 2 = not enough history).";
        exit 1
  in
  Cmd.v (Cmd.info "trend" ~doc) Term.(const run $ history $ html_out $ check $ why $ Cli.csv)
