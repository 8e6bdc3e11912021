(** Schema-versioned, machine-readable run manifest.

    A manifest captures everything a regression gate needs to decide
    whether a run changed: the options fingerprint, per-benchmark
    deterministic results (access counts, allocator stats, traffic,
    IPC, normalized energy), the full {!Metrics} snapshot, {!Span}
    phase totals and a digest of the allocator audit stream.

    Encoding is byte-stable: field order is fixed, numbers print
    through {!Json} idempotently, so [to_string] after a
    decode/re-encode round-trip reproduces the original bytes. *)

val schema_version : int
(** Current manifest schema version (bumped on incompatible change). *)

type options = {
  warps : int;
  seed : int;
  jobs : int;
  orf_entries : int;
  lrf : string;  (** allocator LRF mode, e.g. ["split"] *)
  params_fp : string;  (** hex digest of [Options.params_fp] *)
  benchmarks : string list;
}

(** Active-set residency of the manifest's reference perf run (schema
    v2): entry/exit traffic through the two-level scheduler's active
    set and deschedule events by cause. *)
type sched = {
  entries : int;
  exits : int;
  resident_cycles : int;
  desched_long_latency : int;
  desched_strand_boundary : int;
  desched_bank_conflict : int;
}

type bench = {
  bench : string;
  strands : int;
  write_units : int;
  read_units : int;
  lrf_allocs : int;
  orf_allocs : int;
  partial_allocs : int;
  dynamic_instrs : int;
  desched_events : int;
  capped_warps : int;
  norm_energy : float;
  total_pj : float;
  baseline_pj : float;
  ipc : float;
  stalls : (string * int) list;
      (** warp-cycles per stall cause ({!Timeline.state_name} keys, in
          {!Timeline.all_states} order); sums to [cycles x warps] of the
          reference perf run, so the regression gate catches any
          scheduling-behavior drift exactly *)
  sched : sched;
  counts : Json.t;  (** [Energy.Counts.to_json] shape, kept opaque here *)
  energy_pj : (string * (float * float)) list;
      (** per level: (access, wire) energy in pJ, MRF..LRF order *)
}

type phase = { phase : string; calls : int; total_ms : float }

type audit = {
  alloc_events : int;
  top_allocs : Json.t list;  (** [Audit.to_json] of the top Alloc events *)
}

type t = {
  options : options;
  meta : Host.t;
      (** host fingerprint (cores, OS, OCaml version, git rev/dirty) —
          provenance only: {!Regress} ignores the whole [meta] section,
          so baselines check cleanly across differing hosts (schema
          v3) *)
  benches : bench list;
  metrics : Metrics.snapshot;
  phases : phase list;  (** sorted by phase name for stable diffs *)
  audit : audit;
}

val to_json : t -> Json.t
val to_string : t -> string
val of_string : string -> (t, string) result

val write_file : path:string -> t -> unit
(** Writes [to_string] plus a trailing newline. *)

val read_file : path:string -> (t, string) result

val mean_residency : sched -> float
(** Average active-set visit length in cycles: [resident_cycles /
    entries], [0.] when there were no entries.  Entries, not exits: the
    warp whose last issue ends the run never leaves the active set, so
    a run has more entries than exits. *)

val residency_table : label:string -> (string * sched) list -> Util.Table.t
(** ["Active-set residency"]: per labelled row (the first column is
    headed [label]), active-set entries, exits, resident cycles, mean
    residency and deschedules by cause.  [rfh timeline] prints it per
    scheduler configuration; the run report, per benchmark. *)

val mean_norm_energy : t -> float
(** Arithmetic mean of per-benchmark normalized energy (0 if empty). *)
