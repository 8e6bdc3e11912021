(* Builds the machine-readable run manifest: the paper's best
   three-level configuration against the single-level baseline on the
   option's workload set, plus allocator stats, an audit digest, the
   metrics snapshot and phase totals.

   Two phases.  Phase A replays the allocator serially per benchmark
   with an audit sink installed — audit order stays deterministic and
   the event stream digests to the same counts at any --jobs.  Phase B
   fans the traffic/energy/IPC runs out over [opts.jobs] domains; every
   value it stores is either an exact integer count or a float computed
   in a fixed per-benchmark order, so manifests agree byte-for-byte
   across jobs settings (metrics histogram sums excepted — the regress
   gate compares those with a relative tolerance). *)

let lrf_name = function
  | Alloc.Config.No_lrf -> "no_lrf"
  | Alloc.Config.Unified -> "unified"
  | Alloc.Config.Split -> "split"

let scheme_of_lrf = function
  | Alloc.Config.No_lrf -> Sweep.Sw_two
  | Alloc.Config.Unified -> Sweep.Sw_three_unified
  | Alloc.Config.Split -> Sweep.Sw_three_split

let top_allocs_limit = 10

(* Phase A: serial allocator replay with auditing on.  Returns the
   summed allocator stats per benchmark plus the audit digest.  The
   previously installed audit sink (if any) is dropped. *)
let allocator_pass (opts : Options.t) ~entries ~lrf =
  let events = ref 0 and allocs = ref [] in
  Obs.Audit.set_sink (fun ev ->
      incr events;
      match ev with Obs.Audit.Alloc a -> allocs := a :: !allocs | _ -> ());
  let config = Alloc.Config.make ~orf_entries:entries ~lrf ~params:opts.Options.params () in
  let stats =
    List.map
      (fun e ->
        Obs.Span.with_span "manifest.allocate" (fun () ->
            List.fold_left
              (fun (acc : Alloc.Allocator.stats) ctx ->
                let _placement, s = Alloc.Allocator.run config ctx in
                {
                  Alloc.Allocator.write_units = acc.write_units + s.Alloc.Allocator.write_units;
                  read_units = acc.read_units + s.Alloc.Allocator.read_units;
                  lrf_allocated = acc.lrf_allocated + s.Alloc.Allocator.lrf_allocated;
                  orf_allocated = acc.orf_allocated + s.Alloc.Allocator.orf_allocated;
                  partial_allocated = acc.partial_allocated + s.Alloc.Allocator.partial_allocated;
                })
              {
                Alloc.Allocator.write_units = 0;
                read_units = 0;
                lrf_allocated = 0;
                orf_allocated = 0;
                partial_allocated = 0;
              }
              (Sweep.contexts e)))
      opts.Options.benchmarks
  in
  Obs.Audit.disable ();
  let top =
    (* Stable sort: emission order (deterministic — the replay is
       serial) breaks savings ties. *)
    List.stable_sort
      (fun (a : Obs.Audit.alloc) (b : Obs.Audit.alloc) -> compare b.savings a.savings)
      (List.rev !allocs)
  in
  let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
  (stats, { Obs.Manifest.alloc_events = !events; top_allocs = take top_allocs_limit top })

(* Phase B: parallel traffic/energy/IPC per benchmark. *)
let bench_row (opts : Options.t) scheme ~entries (e : Workloads.Registry.entry)
    (stats : Alloc.Allocator.stats) =
  let run = Sweep.run opts e scheme ~entries in
  let base = Sweep.run opts e Sweep.Baseline ~entries:1 in
  let perf =
    Obs.Span.with_span "manifest.perf" (fun () ->
        Sim.Perf.run ~warps:opts.Options.warps ~seed:opts.Options.seed
          ~scheduler:(Sim.Perf.Two_level 8) ~policy:Sim.Perf.On_dependence (Sweep.context e))
  in
  let strands =
    List.fold_left
      (fun acc ctx -> acc + Strand.Partition.num_strands ctx.Alloc.Context.partition)
      0 (Sweep.contexts e)
  in
  let traffic = run.Sweep.traffic in
  {
    Obs.Manifest.bench = e.Workloads.Registry.name;
    strands;
    write_units = stats.Alloc.Allocator.write_units;
    read_units = stats.Alloc.Allocator.read_units;
    lrf_allocs = stats.Alloc.Allocator.lrf_allocated;
    orf_allocs = stats.Alloc.Allocator.orf_allocated;
    partial_allocs = stats.Alloc.Allocator.partial_allocated;
    dynamic_instrs = traffic.Sim.Traffic.dynamic_instrs;
    desched_events = traffic.Sim.Traffic.desched_events;
    capped_warps = traffic.Sim.Traffic.capped_warps;
    norm_energy =
      Util.Stats.ratio run.Sweep.energy.Energy.Counts.total base.Sweep.energy.Energy.Counts.total;
    total_pj = run.Sweep.energy.Energy.Counts.total;
    baseline_pj = base.Sweep.energy.Energy.Counts.total;
    ipc = perf.Sim.Perf.ipc;
    stalls = Sim.Perf.breakdown_fields perf.Sim.Perf.stalls;
    sched = perf.Sim.Perf.sched;
    counts = Energy.Counts.to_json traffic.Sim.Traffic.counts;
    energy_pj =
      List.map
        (fun (le : Energy.Counts.level_energy) ->
          (Energy.Counts.json_key le.Energy.Counts.level,
           (le.Energy.Counts.access, le.Energy.Counts.wire)))
        run.Sweep.energy.Energy.Counts.levels;
  }

let collect ?(entries = 3) ?(lrf = Alloc.Config.Split) (opts : Options.t) =
  let spans_were = Obs.Span.enabled () in
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_enabled spans_were)
    (fun () ->
      Obs.Span.with_span "manifest.collect" (fun () ->
          let scheme = scheme_of_lrf lrf in
          let stats, audit = allocator_pass opts ~entries ~lrf in
          let rows =
            Util.Pool.parallel_map ~jobs:opts.Options.jobs
              ~label:"manifest.bench_row"
              (fun (e, s) -> bench_row opts scheme ~entries e s)
              (List.combine opts.Options.benchmarks stats)
          in
          let phases =
            Obs.Span.totals ()
            |> List.map (fun (phase, (calls, total_ms)) ->
                   { Obs.Manifest.phase; calls; total_ms })
            |> List.sort (fun a b -> compare a.Obs.Manifest.phase b.Obs.Manifest.phase)
          in
          {
            Obs.Manifest.meta = Obs.Host.fingerprint ();
            options =
              {
                Obs.Manifest.warps = opts.Options.warps;
                seed = opts.Options.seed;
                jobs = opts.Options.jobs;
                orf_entries = entries;
                lrf = lrf_name lrf;
                params_fp = Digest.to_hex (Digest.string opts.Options.params_fp);
                benchmarks =
                  List.map (fun e -> e.Workloads.Registry.name) opts.Options.benchmarks;
              };
            benches = rows;
            metrics = Obs.Metrics.snapshot ();
            phases;
            audit;
          }))
