(** Shared machinery for the evaluation figures: per-benchmark traffic
    under every register-file organisation, with memoization across
    figures (the same (benchmark, scheme, size) run backs several
    tables). *)

type scheme =
  | Baseline       (** single-level register file *)
  | Sw_two         (** compiler ORF + MRF *)
  | Sw_three_unified
  | Sw_three_split (** the paper's best configuration *)
  | Hw_two         (** hardware RFC + MRF (prior work) *)
  | Hw_three       (** hardware LRF + RFC + MRF *)

val scheme_name : scheme -> string
val all_schemes : scheme list

type run = {
  traffic : Sim.Traffic.result;
  (** aggregated over the application's kernels: merged counts and
      summed event counters; [per_strand] concatenates the kernels'
      per-strand arrays in kernel order *)
  energy : Energy.Counts.breakdown;  (** priced at the run's ORF size *)
}

val run :
  Options.t -> Workloads.Registry.entry -> scheme -> entries:int -> run
(** Memoized on (benchmark, scheme, entries, warps, seed). *)

val context : Workloads.Registry.entry -> Alloc.Context.t
(** Memoized compiler context for the benchmark's dominant kernel. *)

val contexts : Workloads.Registry.entry -> Alloc.Context.t list
(** Contexts for every kernel of the application, dominant first;
    the energy runs aggregate traffic across all of them. *)

val per_bench : Options.t -> (Workloads.Registry.entry -> 'a) -> 'a list
(** Map over the option's workload set on [opts.jobs] domains
    ({!Util.Pool.parallel_map}); results are in benchmark order, so
    downstream tables are identical to a serial run.  The memo tables
    behind {!run} and {!context} are domain-safe with in-flight
    deduplication.  Every artefact is one such region. *)

val means :
  Options.t -> 'k list -> (Workloads.Registry.entry -> 'k -> float) -> ('k * float) list
(** [means opts keys cell]: one {!per_bench} region whose task for
    benchmark [e] computes [cell e k] for every key; returns each key
    with the {!Util.Stats.mean} of its cells in benchmark order, in key
    order.  An empty selection gives [0.0] for every key. *)

val clear_caches : unit -> unit
(** Drop all memoized runs and contexts (used by the benchmark harness
    to time cold regeneration). *)

val vs_baseline : Options.t -> Workloads.Registry.entry -> float -> float
(** Energy (pJ) normalized to the single-level baseline's total on the
    same benchmark. *)

val energy_ratio : Options.t -> Workloads.Registry.entry -> scheme -> entries:int -> float
(** Total access+wire energy normalized to the single-level baseline
    on the same benchmark. *)

val sw_scheme : Alloc.Config.t -> Alloc.Context.t -> Sim.Traffic.scheme
(** The software scheme under [config]: the allocator's placement of
    the context. *)

val traffic_energy :
  Options.t ->
  Alloc.Context.t list ->
  orf_entries:int ->
  (Alloc.Context.t -> Sim.Traffic.scheme) ->
  float
(** Unmemoized: each context's traffic under [scheme ctx] priced at
    [orf_entries], and the totals summed over the contexts in list
    order.  {!run} prices the merged counts instead, so the two round
    differently. *)
