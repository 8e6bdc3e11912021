(* engine: wall-clock profiling of the host engine itself — where does
   parallel wall x domains go, exactly, and how much of it is GC? *)

open Cmdliner

let cmd =
  let doc =
    "Profile the host engine while regenerating one artefact (or $(b,all)) at each requested \
     $(b,--jobs) setting: speedup/efficiency per setting, plus an exact decomposition of \
     every parallel region's wall x domains budget into useful work, spawn, teardown, lock \
     wait, memo wait, dispatch and idle — the categories sum exactly.  The GC view of the \
     same windows splits every region's useful time into compute + gc from Runtime_events \
     pauses, with Gc.quick_stat allocation deltas per region and a pause-duration histogram \
     (p50/p99).  Exits 1 if any accounting invariant fails, a GC capture is missing, or the \
     rendered tables differ across jobs settings.  $(b,--trace-out) writes a Perfetto trace \
     with per-domain task slices (pid 4) and GC pause slices (pid 5) on wall-clock process \
     rows; $(b,--json-out) writes the engine reports (gc capture included) as JSON; \
     $(b,--report-out) writes a standalone HTML engine+GC report."
  in
  let target =
    Arg.(
      value
      & pos 0 string "fig13"
      & info [] ~docv:"TARGET" ~doc:"Artefact to regenerate (fig2..tables, or 'all').")
  in
  let jobs_list =
    let doc = "Comma-separated worker-domain settings to profile, e.g. 1,2,4,8." in
    Term.(
      const (List.map (Cli.check_range "--jobs" ~lo:0))
      $ Arg.(value & opt (list int) [ 1; 2 ] & info [ "jobs"; "j" ] ~docv:"N,N,..." ~doc))
  in
  let trace_out =
    Cli.trace_out
      "Write a Chrome trace-event JSON file: phase spans (pid 1), per-domain engine task/wait \
       slices (pid 4) and per-domain GC pause slices (pid 5), all against one monotonic epoch."
  in
  let json_out =
    Cli.json_out
      "Write the engine reports (one per jobs setting, gc capture included) as a JSON array to \
       $(docv)."
  in
  let run target opts jobs_list trace_out json_out report_out =
    let artefacts = Cli.artefacts_of_target target in
    let jobs_list =
      List.sort_uniq compare (List.map (fun j -> Util.Pool.resolve_jobs (Some j)) jobs_list)
    in
    let jobs_list = if jobs_list = [] then [ 1 ] else jobs_list in
    let check, report = Cli.self_checks () in
    let runs, trace_line =
      Cli.traced ~process_name:"rfh engine" trace_out (fun () ->
          (* One profiled window per jobs setting.  Caches are cleared
             before every window so each run recomputes the same work
             from scratch — the walls are comparable and the memo
             tables show their real inter-domain behaviour instead of a
             warm cache. *)
          let runs =
            List.map
              (fun j ->
                Experiments.Report.clear_caches ();
                let opts = Experiments.Options.with_jobs opts j in
                let rendered, report =
                  Obs.Engine.profile ~label:target ~jobs:j (fun () ->
                      List.concat_map
                        (fun a -> List.map Util.Table.render (Experiments.Report.tables_of opts a))
                        artefacts)
                in
                (j, String.concat "\n" rendered, report))
              jobs_list
          in
          let reports = List.map (fun (_, _, r) -> r) runs in
          (* One shared zero point: engine epochs and span timestamps
             are the same CLOCK_MONOTONIC, so the earliest of either
             works for every row. *)
          let base_ns =
            List.fold_left
              (fun acc (r : Obs.Engine.report) -> min acc r.Obs.Engine.epoch_ns)
              (match Obs.Span.spans () with
               | [] -> (match reports with [] -> 0L | r :: _ -> r.Obs.Engine.epoch_ns)
               | spans -> Obs.Trace_export.earliest_span_ns spans)
              reports
          in
          let extra =
            List.concat_map (Obs.Engine.trace_events ~base_ns) reports
            @ List.concat_map (Obs.Engine.gc_trace_events ~base_ns) reports
          in
          (runs, { Cli.no_rows with base_ns = Some base_ns; extra }))
    in
    let reports = List.map (fun (_, _, r) -> r) runs in
    (* Result parity: the engine may only change how fast tables are
       produced, never their bytes. *)
    (match runs with
     | [] -> ()
     | (j0, out0, _) :: rest ->
       List.iter
         (fun (j, out, _) ->
           check (Printf.sprintf "rendered tables at jobs=%d byte-identical to jobs=%d" j j0)
             (String.equal out out0))
         rest);
    (* Accounting invariants: every category >= 0 and the seven sum to
       wall x domains in every region, 0 <= gc <= useful, lookups =
       hits+misses+waits per memo table, contended <= acquisitions per
       lock. *)
    List.iter
      (fun (r : Obs.Engine.report) ->
        check (Printf.sprintf "jobs=%d: gc capture present" r.Obs.Engine.jobs)
          (r.Obs.Engine.gc <> None);
        List.iter
          (fun violation -> check (Printf.sprintf "jobs=%d: %s" r.Obs.Engine.jobs violation) false)
          (Obs.Engine.check r))
      reports;
    let json =
      Cli.saved
        (Printf.sprintf "engine json: %d reports" (List.length reports))
        (Cli.json_file (Obs.Json.Arr (List.map Obs.Engine.to_json reports)))
        json_out
    in
    Cli.emit ~label:"engine report" ~title:"rfh engine report" ?report_out
      ((Cli.Page (Obs.Html_report.muted ("target: " ^ target))
       :: List.map (fun t -> Cli.Table t) (Obs.Engine.tables reports))
      @ [ Cli.Page (Obs.Html_report.engine_bars reports) ]
      @ json @ [ Cli.Report ] @ trace_line);
    report ~failed:"engine: self-checks FAILED:"
      ~passed:
        (Printf.sprintf
           "engine: all self-checks passed (%d jobs settings; categories sum to wall x domains \
            and 0 <= gc <= useful in every region; rendered tables byte-identical)"
           (List.length jobs_list))
      ()
  in
  Cmd.v (Cmd.info "engine" ~doc ~exits:Cli.exits)
    Term.(
      const run $ target $ Cli.selection () $ jobs_list $ trace_out $ json_out
      $ Cli.report_out ())
