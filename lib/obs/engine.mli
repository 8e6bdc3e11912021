(** Wall-clock engine profiler: exact parallel-efficiency accounting.

    {!profile} records one profiled window through {!Util.Eprof} (the
    raw recorder under [lib/util]) and analyzes it into a {!report}:
    per parallel region, the budget [wall × domains] is decomposed
    into seven named categories that {e sum exactly} — the same
    "every cycle has exactly one cause" discipline the warp-pipeline
    introspection applies to simulated stalls, applied to the OCaml
    domains running the simulator:

    - [useful]: time inside work items, minus profiled-lock and memo
      waits incurred there — the part that scales;
    - [spawn]: caller time inside [Domain.spawn];
    - [teardown]: caller time inside [Domain.join] {e after} the
      joined worker finished (join time spent waiting for a still-busy
      worker is imbalance, i.e. [idle]);
    - [lock_wait]: contended acquisitions of the profiled telemetry
      mutexes ([obs.metrics.*], the recorders' [obs.*.sink],
      [obs.span.spans]);
    - [memo_wait]: blocking on another domain's in-flight
      {!Util.Memo} computation;
    - [dispatch]: worker-loop time outside work items — index
      claiming, slot writes, event recording;
    - [idle]: everything else — workers idle before spawn/after their
      loop, the caller waiting in joins for busy workers (imbalance).

    Wait intervals are attributed to the innermost enclosing region
    and clipped to the owning domain's work items, so the categories
    stay disjoint by construction; {!check} re-verifies the sum and
    every component's sign, and [rfh engine] exits 1 if it ever
    fails.  Nested regions are each exact in isolation (an outer
    region's [useful] contains its inner regions' whole budgets).

    When {!Gcprof} ran over the window (the {!profile} default),
    [useful] is further split into [compute + gc]: [gc_ns] is the
    collector time ({!Gcprof} pauses of a collecting kind) overlapping
    the domain's work items, clamped into [[0, useful_ns]], so
    [compute = useful - gc] is exact by construction.  It is a
    sub-split, not an eighth category — the seven-way budget sum is
    unchanged. *)

type categories = {
  useful_ns : int;
  spawn_ns : int;
  teardown_ns : int;
  lock_wait_ns : int;
  memo_wait_ns : int;
  dispatch_ns : int;
  idle_ns : int;
  gc_ns : int;  (** sub-split of [useful_ns]; 0 without a {!Gcprof} capture *)
}

val cat_total : categories -> int
(** Sum of all seven categories ([gc_ns] excluded: it is part of
    [useful_ns]). *)

val category_names : string list
(** Display order: useful, spawn, teardown, lock wait, memo wait,
    dispatch, idle. *)

val cat_list : categories -> (string * int) list
(** [(category name, ns)] in {!category_names} order. *)

type region = {
  id : int;
  label : string;          (** the [?label] passed to [Pool.parallel_map] *)
  req_jobs : int;          (** requested [--jobs] *)
  domains : int;           (** actual team size (≤ req_jobs, ≤ elements) *)
  tasks : int;
  caller : int;            (** calling domain id *)
  start_ns : int;          (** region begin, relative to the epoch *)
  wall_ns : int;
  cats : categories;       (** [cat_total cats = wall_ns * domains] *)
}

type slice = {
  s_name : string;
  s_cat : string;          (** ["task"], ["lock"] or ["memo"] *)
  s_dom : int;
  s_start_ns : int;        (** relative to the epoch *)
  s_dur_ns : int;
}

type report = {
  label : string;
  jobs : int;              (** requested jobs for the whole window *)
  epoch_ns : int64;        (** absolute monotonic zero point ({!Util.Eprof.epoch_ns}) *)
  wall_ns : int;           (** whole profiled window, not just regions *)
  regions : region list;
  locks : Util.Eprof.lock_stats list;  (** deltas over the window *)
  memos : Util.Eprof.memo_stats list;  (** deltas over the window *)
  slices : slice list;     (** per-domain task/wait slices for traces *)
  gc : Gcprof.capture option;  (** the window's GC capture, when one ran *)
}

val profile : ?label:string -> ?gcprof:bool -> jobs:int -> (unit -> 'a) -> 'a * report
(** Run the thunk with the {!Util.Eprof} recorder on and analyze the
    recording.  The recorder is stopped (and on exceptions, the
    recording discarded) on the way out.  Not reentrant: one profiled
    window at a time.  [gcprof] (default [true]) also runs a
    {!Gcprof} capture over the window, filling [report.gc] and the
    per-region [gc_ns] sub-split. *)

val check : report -> string list
(** Accounting invariant violations, [[]] when sound: per region,
    every category [>= 0], their sum [= wall_ns * domains] and
    [0 <= gc_ns <= useful_ns]; per memo table,
    [lookups = hits + misses + waits]; per lock,
    [contended <= acquisitions]; per GC pause, duration [>= 0]. *)

val agg_categories : report -> categories
(** Categories summed over all regions (budget =
    [sum of wall × domains]). *)

(** {1 Rendering} *)

val tables : report list -> Util.Table.t list
(** Every engine table, in the order [rfh engine] prints them and its
    [--report-out] page renders them (give the reports in
    ascending-jobs order; the first is the speedup baseline):
    speedup, aggregate overhead breakdown, one region table per
    report, the memo and lock tables of the widest report, then the
    GC views — pause summary, memory deltas and one per-region GC
    table per report.  Reports without a GC capture contribute no GC
    rows. *)

val memo_stats_table : Util.Eprof.memo_stats list -> Util.Table.t
(** Hit-rate table for cumulative {!Util.Eprof.memo_stats} snapshots
    (used by [rfh profile], where no engine window is recorded). *)

val gc_share : report -> float
(** Aggregate [gc / useful] over all regions ([0.] when no useful
    time was recorded). *)

(** {1 Interchange} *)

val to_json : report -> Json.t
(** Fixed field order (byte-stable); the [gc] object, with its
    [lost_events] and [unmatched] counts, only when a capture ran.
    Write-only: nothing reads engine JSON back. *)

val trace_pid : int
(** Process row for engine slices in exported traces:
    {!Trace_export.engine_pid} (wall-clock time base — see the pid
    registry in {!Trace_export}). *)

val trace_events : base_ns:int64 -> report -> Json.t list
(** Perfetto rows for one report: process/thread metadata plus one
    "X" slice per region (on the caller's tid) and per task/wait
    slice (on the owning domain's tid).  [base_ns] is the absolute
    timestamp subtracted from every event — pass a common base (e.g.
    the earliest span or epoch) so engine rows align with span
    rows. *)

val gc_trace_events : base_ns:int64 -> report -> Json.t list
(** Perfetto rows for the report's GC capture on
    {!Trace_export.gc_pid}: one "X" slice per pause, on the resolved
    domain's tid (unresolved pauses land on a sentinel "unresolved"
    row).  Same time base and [base_ns] convention as
    {!trace_events}; empty without a capture. *)
