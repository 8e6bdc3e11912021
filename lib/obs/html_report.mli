(** Self-contained HTML rendering of a run manifest.

    The output is a single file with inline CSS and no scripts or
    external assets — it opens from disk offline and attaches to CI
    runs as one artifact.  Sections: run options, headline mean
    normalized energy, per-benchmark energy-breakdown bars (stacked by
    register-file level, width proportional to normalized energy),
    benchmark results table, phase-time table, metrics registry and the
    top allocator audit events.

    With [?compare] the report becomes an A/B diff: the headline and
    the results table additionally show deltas against the baseline
    manifest.

    With [?explain] (one {!Explain.kernel_report} per kernel, as
    assembled by [rfh explain]) the report gains an "Allocation
    explainer" section: the per-kernel decision table and an energy
    heatmap over the instruction stream whose row backgrounds scale
    with each instruction's attributed register-file energy.

    With [?engine] (one {!Engine.report} per [--jobs] setting, in
    ascending order) the report gains an "Engine profile" section:
    the speedup/efficiency table and one stacked bar per jobs setting
    decomposing the parallel-region budget (wall × domains) into the
    seven exact overhead categories, plus per-region bars and the
    memo/lock contention tables of the widest run. *)

val render :
  ?compare:Manifest.t ->
  ?explain:Explain.kernel_report list ->
  ?engine:Engine.report list ->
  Manifest.t ->
  string

val render_engine_page : Engine.report list -> string
(** A standalone engine-only page (same styling, no manifest needed) —
    what [rfh engine --report-out] writes. *)

val render_trend_page :
  history_path:string ->
  records:History.t list ->
  rejected:int ->
  Trend.gate_result ->
  string
(** A standalone trend dashboard over the cross-run history (same
    styling; sparklines are inline SVG with change points marked and
    annotated with their git revisions) — what [rfh trend --html-out]
    writes.  [rejected] is the undecodable-line count from
    {!History.load}; an exit-2 gate renders a "not enough history"
    banner instead of tables. *)

val render_why_page :
  baseline_label:string -> candidate_label:string -> Rootcause.t -> string
(** A standalone root-cause page (same styling) — what [rfh why
    --report-out] writes.  Sections: attribution self-check banner,
    top-cause headline, ranked cause table, per-benchmark signed
    metric delta bars (red = bad direction: IPC down or energy up),
    stall-share delta tables and the allocation decision diff when
    explain streams were supplied.  The labels are the input paths. *)

val write_page : path:string -> string -> unit
(** Write a rendered page to [path].  @raise Sys_error on I/O failure. *)

val short_rev : string -> string
(** A git revision cut to its first 10 characters, as every trend view
    prints it. *)
