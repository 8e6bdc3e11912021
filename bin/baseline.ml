(* baseline record / check: the regression gate's golden manifest. *)

open Cmdliner

let path =
  let doc = "Golden manifest file." in
  Arg.(value & opt string "baselines/default.json" & info [ "baseline" ] ~docv:"FILE" ~doc)

(* The gate runs in CI on every push, so its default working set is the
   quick one: 8 warps reproduce the same normalized results for the
   warp-uniform kernels at a fraction of the simulation time. *)
let options = Cli.options ~warps:8 ()

let record =
  let doc =
    "Record the golden run manifest the regression gate compares against.  Deterministic \
     fields (access counts, allocator stats, traffic, metric counters) are later compared \
     exactly; record once and commit the file."
  in
  let run opts path manifest_out report_out =
    let m = Experiments.Run_manifest.collect opts in
    Cli.write_or_die path (fun path -> Obs.Manifest.write_file ~path m);
    let saved, run_report = Cli.manifest_outs m ~manifest_out in
    Cli.emit ~title:"rfh baseline record" ?report_out
      (Cli.textf "baseline: %d benchmarks, mean normalized energy %.4f -> %s\n"
         (List.length m.Obs.Manifest.benches)
         (Obs.Manifest.mean_norm_energy m)
         path
      :: saved
      @ run_report)
  in
  Cmd.v (Cmd.info "record" ~doc ~exits:Cli.exits)
    Term.(const run $ options $ path $ Cli.manifest_out $ Cli.report_out ())

let check =
  let doc =
    "Run fresh and diff against the golden manifest: exact comparison for deterministic \
     counts, relative tolerance for other floats, timings only with $(b,--timing-tol).  \
     Exits 1 on violations, 2 if the baseline is missing."
  in
  (* A tolerance is a finite number, at least 0: a negative one flags
     equal values as drift and NaN passes every comparison, so either
     exits 2 naming the flag before the run. *)
  let tolerance flag v =
    if Float.is_finite v && v >= 0.0 then v
    else
      Cli.die_usage
        (Printf.sprintf "rfh: %s %g is out of range (expected a finite number, at least 0)" flag v)
  in
  let float_tol =
    let doc = "Relative tolerance for non-integral numbers." in
    Term.(
      const (tolerance "--float-tol")
      $ Arg.(value & opt float 1e-9 & info [ "float-tol" ] ~docv:"TOL" ~doc))
  in
  let timing_tol =
    let doc =
      "Also compare wall-clock timing fields (phase total_ms) with this relative tolerance; \
       without it they are skipped."
    in
    Term.(
      const (Option.map (tolerance "--timing-tol"))
      $ Arg.(value & opt (some float) None & info [ "timing-tol" ] ~docv:"TOL" ~doc))
  in
  let json_out =
    Cli.json_out
      "Write the machine-readable violations report (ok flag, compared count, violation list) \
       to $(docv) — written on success and failure alike."
  in
  let why =
    Cli.why
      "On failure, also print the ranked root-cause diagnosis (metric and stall-share deltas \
       between the golden manifest and the fresh run) to stderr.  Exit codes are unchanged."
  in
  (* Exit-code contract (documented in docs/observability.md): 0 = the
     run matches the golden manifest, 1 = a compared field drifted,
     2 = the baseline file is missing or unreadable. *)
  let run opts path float_tol timing_tol manifest_out report_out json_out why =
    match Obs.Manifest.read_file ~path with
    | Error msg ->
      Printf.eprintf
        "baseline check: cannot read %s (%s)\n\
         exit 2: the golden manifest is missing or unreadable (1 = drift, 0 = match).\n\
         Record one first: rfh baseline record\n"
        path msg;
      exit 2
    | Ok baseline ->
      let current = Experiments.Run_manifest.collect opts in
      let saved, run_report = Cli.manifest_outs ~compare:baseline current ~manifest_out in
      let report = Obs.Regress.diff ~float_tol ?timing_tol ~baseline ~current () in
      let json = Cli.saved "violations json" (Cli.json_file (Obs.Regress.to_json report)) json_out in
      Cli.emit ~title:"rfh baseline check" ?report_out
        (saved @ [ Cli.Table (Obs.Regress.to_table report) ] @ json @ run_report);
      if not (Obs.Regress.ok report) then begin
        if why then begin
          let r = Obs.Rootcause.analyze ~baseline ~candidate:current () in
          prerr_endline (Util.Table.render (Obs.Rootcause.to_table ~top:10 r));
          prerr_endline
            (Option.value (Cli.top_cause "baseline why" r)
               ~default:
                 "baseline why: no metric or stall cause found — the drift is in a field the \
                  probes do not summarize (see the violations table).")
        end;
        prerr_endline
          "baseline check: FAILED — exit 1: a compared field drifted from the golden \
           manifest (0 = match, 2 = baseline missing or unreadable).";
        exit 1
      end
  in
  Cmd.v (Cmd.info "check" ~doc ~exits:Cli.exits)
    Term.(
      const run $ options $ path $ float_tol $ timing_tol $ Cli.manifest_out $ Cli.report_out ()
      $ json_out $ why)

let cmd =
  let doc = "Record or check the regression-gate golden manifest." in
  Cmd.group (Cmd.info "baseline" ~doc ~exits:Cli.exits) [ record; check ]
