type scheme =
  | Baseline
  | Sw_two
  | Sw_three_unified
  | Sw_three_split
  | Hw_two
  | Hw_three

let scheme_name = function
  | Baseline -> "baseline"
  | Sw_two -> "SW"
  | Sw_three_unified -> "SW LRF"
  | Sw_three_split -> "SW LRF Split"
  | Hw_two -> "HW"
  | Hw_three -> "HW LRF"

let all_schemes = [ Baseline; Sw_two; Sw_three_unified; Sw_three_split; Hw_two; Hw_three ]

type run = {
  traffic : Sim.Traffic.result;
  energy : Energy.Counts.breakdown;
}

(* Memo tables are domain-safe with in-flight dedup: when the figures
   fan out per benchmark, two domains wanting the same compiled context
   or (benchmark, scheme, entries) run compute it once and share it.
   The in-flight claim also means each entry's kernel lazies are forced
   by exactly one domain. *)
let context_cache : (string, Alloc.Context.t list) Util.Memo.t =
  Util.Memo.create ~name:"sweep.context" 64

let contexts (e : Workloads.Registry.entry) =
  Util.Memo.find_or_compute context_cache e.Workloads.Registry.name (fun () ->
      List.map Alloc.Context.create (Lazy.force e.Workloads.Registry.kernels))

let context e = List.hd (contexts e)

let per_bench (opts : Options.t) f =
  Util.Pool.parallel_map ~jobs:opts.Options.jobs ~label:"sweep.per_bench" f opts.Options.benchmarks

(* Aggregate the per-kernel traffic results of one application. *)
let merge_traffic (results : Sim.Traffic.result list) =
  match results with
  | [] -> invalid_arg "Sweep: no kernels"
  | [ r ] -> r
  | _ ->
    let counts = Energy.Counts.create () in
    List.iter (fun (r : Sim.Traffic.result) -> Energy.Counts.merge_into ~dst:counts r.Sim.Traffic.counts)
      results;
    {
      Sim.Traffic.counts;
      per_strand =
        Array.concat (List.map (fun (r : Sim.Traffic.result) -> r.Sim.Traffic.per_strand) results);
      dynamic_instrs =
        List.fold_left (fun acc (r : Sim.Traffic.result) -> acc + r.Sim.Traffic.dynamic_instrs) 0 results;
      desched_events =
        List.fold_left (fun acc (r : Sim.Traffic.result) -> acc + r.Sim.Traffic.desched_events) 0 results;
      capped_warps =
        List.fold_left (fun acc (r : Sim.Traffic.result) -> acc + r.Sim.Traffic.capped_warps) 0 results;
    }

let run_cache : (string * scheme * int * int * int * string, run) Util.Memo.t =
  Util.Memo.create ~name:"sweep.run" 256

let sw_scheme config ctx = Sim.Traffic.Sw { config; placement = Alloc.Allocator.place config ctx }

let sim_scheme (opts : Options.t) ctx scheme ~entries =
  match scheme with
  | Baseline -> Sim.Traffic.Baseline
  | Sw_two | Sw_three_unified | Sw_three_split ->
    let lrf =
      match scheme with
      | Sw_two -> Alloc.Config.No_lrf
      | Sw_three_unified -> Alloc.Config.Unified
      | _ -> Alloc.Config.Split
    in
    sw_scheme (Alloc.Config.make ~orf_entries:entries ~lrf ~params:opts.Options.params ()) ctx
  | Hw_two -> Sim.Traffic.Hw (Sim.Traffic.hw_defaults ~rfc_entries:entries)
  | Hw_three ->
    Sim.Traffic.Hw { (Sim.Traffic.hw_defaults ~rfc_entries:entries) with Sim.Traffic.with_lrf = true }

let run (opts : Options.t) (e : Workloads.Registry.entry) scheme ~entries =
  let key =
    ( e.Workloads.Registry.name, scheme, entries, opts.Options.warps, opts.Options.seed,
      opts.Options.params_fp )
  in
  Util.Memo.find_or_compute run_cache key (fun () ->
      let traffic =
        merge_traffic
          (List.map
             (fun ctx ->
               Sim.Traffic.run ~warps:opts.Options.warps ~seed:opts.Options.seed ctx
                 (sim_scheme opts ctx scheme ~entries))
             (contexts e))
      in
      let energy =
        Obs.Span.with_span "energy" (fun () ->
            Energy.Counts.energy opts.Options.params ~orf_entries:entries
              traffic.Sim.Traffic.counts)
      in
      { traffic; energy })

let vs_baseline opts e pj =
  Util.Stats.ratio pj (run opts e Baseline ~entries:1).energy.Energy.Counts.total

let energy_ratio opts e scheme ~entries =
  vs_baseline opts e (run opts e scheme ~entries).energy.Energy.Counts.total

let means opts keys cell =
  let rows = per_bench opts (fun e -> Array.of_list (List.map (cell e) keys)) in
  List.mapi (fun i k -> (k, Util.Stats.mean (List.map (fun row -> row.(i)) rows))) keys

let traffic_energy (opts : Options.t) ctxs ~orf_entries scheme =
  List.fold_left
    (fun acc ctx ->
      let traffic =
        Sim.Traffic.run ~warps:opts.Options.warps ~seed:opts.Options.seed ctx (scheme ctx)
      in
      acc
      +. (Energy.Counts.energy opts.Options.params ~orf_entries traffic.Sim.Traffic.counts)
           .Energy.Counts.total)
    0.0 ctxs

let clear_caches () =
  Util.Memo.reset context_cache;
  Util.Memo.reset run_cache
