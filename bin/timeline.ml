(* timeline: warp-level pipeline introspection of one benchmark's
   timing simulation — per-cause stall breakdown across scheduler
   configurations, active-set residency, the most-stalled warps, and
   the per-warp state intervals as JSONL / Perfetto slices. *)

open Cmdliner

let base_configs =
  [
    ("single-level on-dep", Sim.Perf.Single_level, Sim.Perf.On_dependence);
    ("two-level-8 on-dep", Sim.Perf.Two_level 8, Sim.Perf.On_dependence);
    ("two-level-8 strand", Sim.Perf.Two_level 8, Sim.Perf.At_strand_boundaries);
  ]

(* The recorder captures the configuration the paper cares most about:
   the two-level scheduler under the hardware policy with banked
   operand fetch. *)
let primary_label = "two-level-8 on-dep banked"

let cmd =
  let doc =
    "Attribute every warp-cycle of one benchmark's timing simulation to a stall cause \
     (issued, long/short-latency dependence, banked-MRF conflict serialization, descheduled, \
     lost arbitration, finished) across scheduler/policy configurations, with active-set \
     residency stats and the most-stalled warps.  The breakdown is exact: it sums to cycles x \
     warps for every configuration, and the command exits 1 if any cross-check fails.  \
     $(b,--jsonl-out) writes the per-warp state intervals as JSON Lines (validated by \
     re-reading); $(b,--trace-out) writes a Perfetto trace whose timeline rows render one \
     thread per warp; $(b,--report-out) writes the HTML run report with the \
     stall-attribution section."
  in
  let banks =
    let doc = "MRF banks for the banked operand-fetch configurations (Table 2: 32)." in
    Cli.in_range "--mrf-banks" ~lo:1 Arg.(value & opt int 32 & info [ "mrf-banks" ] ~docv:"N" ~doc)
  in
  let top = Term.(const Option.get $ Cli.top ~default:8 "Most-stalled warps to print.") in
  let jsonl_out = Cli.jsonl_out "Write the recorded warp-state intervals as JSON Lines to $(docv)." in
  let trace_out =
    Cli.trace_out
      "Write a Chrome trace-event JSON file with phase spans, simulator counter tracks and the \
       per-warp timeline slices (one Perfetto thread per warp)."
  in
  let run name warps seed banks top jsonl_out trace_out report_out =
    let e = Cli.find_bench name in
    let bench = e.Workloads.Registry.name in
    let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
    let configs =
      List.map (fun (l, s, p) -> (l ^ " ideal", s, p, None)) base_configs
      @ List.map (fun (l, s, p) -> (l ^ " banked", s, p, Some banks)) base_configs
    in
    let check, report = Cli.self_checks () in
    let (results, jsonl_line), trace_line =
      Cli.traced ~counters:true ~process_name:"rfh timeline" trace_out (fun () ->
          let intervals, close = Cli.recording (module Obs.Timeline) jsonl_out in
          let results =
            List.map
              (fun (label, scheduler, policy, mrf_banks) ->
                Obs.Timeline.set_enabled (label = primary_label);
                let r = Sim.Perf.run ~warps ~seed ?mrf_banks ~scheduler ~policy ctx in
                Obs.Timeline.set_enabled false;
                (* Exactness invariant: the breakdown accounts for every
                   warp-cycle, per warp and in total, and the issued
                   total reproduces the instruction count. *)
                check
                  (Printf.sprintf "%s: stall total = cycles x warps" label)
                  (Sim.Perf.breakdown_total r.Sim.Perf.stalls = r.Sim.Perf.cycles * warps);
                Array.iter
                  (fun (ws : Sim.Perf.warp_stats) ->
                    check
                      (Printf.sprintf "%s: warp %d breakdown sums to cycles" label ws.Sim.Perf.warp)
                      (Sim.Perf.breakdown_total ws.Sim.Perf.breakdown = r.Sim.Perf.cycles))
                  r.Sim.Perf.per_warp;
                check
                  (Printf.sprintf "%s: issued cycles = instructions" label)
                  (r.Sim.Perf.stalls.Sim.Perf.issued = r.Sim.Perf.instructions);
                (label, r))
              configs
          in
          close ();
          let primary = List.assoc primary_label results in
          (* Recorder neutrality: re-running the recorded configuration
             with the recorder off must reproduce the same breakdown. *)
          let unrecorded =
            Sim.Perf.run ~warps ~seed ~mrf_banks:banks ~scheduler:(Sim.Perf.Two_level 8)
              ~policy:Sim.Perf.On_dependence ctx
          in
          check "recorder on/off breakdown identity"
            (Sim.Perf.breakdown_fields unrecorded.Sim.Perf.stalls
             = Sim.Perf.breakdown_fields primary.Sim.Perf.stalls
            && unrecorded.Sim.Perf.cycles = primary.Sim.Perf.cycles);
          (* Interval cross-checks: per warp, the recorded intervals
             tile [0, cycles) and re-derive the breakdown exactly. *)
          let ivs = intervals () in
          for w = 0 to warps - 1 do
            let wivs = List.filter (fun iv -> iv.Obs.Timeline.warp = w) ivs in
            let rec tiles expected = function
              | [] -> expected = primary.Sim.Perf.cycles
              | iv :: tl -> iv.Obs.Timeline.start = expected && tiles iv.Obs.Timeline.stop tl
            in
            check (Printf.sprintf "warp %d intervals tile [0, cycles)" w) (tiles 0 wivs);
            let from_ivs cause =
              List.fold_left
                (fun acc iv ->
                  if iv.Obs.Timeline.state = cause then
                    acc + (iv.Obs.Timeline.stop - iv.Obs.Timeline.start)
                  else acc)
                0 wivs
            in
            let ws = primary.Sim.Perf.per_warp.(w) in
            List.iter
              (fun cause ->
                check
                  (Printf.sprintf "warp %d: intervals re-derive %s cycles" w
                     (Obs.Timeline.state_name cause))
                  (from_ivs cause = Sim.Perf.breakdown_get ws.Sim.Perf.breakdown cause))
              Obs.Timeline.all_states
          done;
          (* JSONL round-trip: the written stream must decode back to
             the recorded intervals, line for line, with no rejected
             line. *)
          let jsonl_line =
            Option.fold ~none:[]
              ~some:(fun path ->
                match Obs.Timeline.load_jsonl ~path with
                | Error msg -> check ("jsonl re-read: " ^ msg) false; []
                | Ok (decoded, rejected) ->
                  check (Printf.sprintf "jsonl: %d undecodable lines" rejected) (rejected = 0);
                  check "jsonl round-trip reproduces the recorded intervals" (decoded = ivs);
                  [ Cli.textf "jsonl: %d intervals -> %s (round-trip ok)\n" (List.length ivs) path ])
              jsonl_out
          in
          ((results, jsonl_line), { Cli.no_rows with timeline = ivs }))
    in
    let saved, run_report =
      Cli.collected (Cli.bench_options ~warps ~seed e) ~manifest_out:None ~report_out
    in
    Cli.emit ~title:("rfh timeline " ^ bench) ?report_out
      (jsonl_line
      @ [
          Cli.Table (Sim.Perf.stall_table ~bench ~warps results);
          Cli.Table (Sim.Perf.residency_table results);
          Cli.Table (Sim.Perf.top_warps_table ~n:top ~label:primary_label (List.assoc primary_label results));
        ]
      @ trace_line @ saved @ run_report);
    report ~failed:"timeline: cross-checks FAILED:"
      ~passed:
        (Printf.sprintf
           "timeline: all cross-checks passed (%d configs; breakdowns sum to cycles x %d warps)"
           (List.length configs) warps)
      ()
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(
      const run $ Cli.bench_name $ Cli.warps () $ Cli.seed $ banks $ top $ jsonl_out $ trace_out
      $ Cli.report_out ())
