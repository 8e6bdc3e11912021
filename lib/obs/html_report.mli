(** Self-contained HTML pages.

    Each page is a single file with inline CSS and no scripts or
    external assets — it opens from disk offline and attaches to CI
    runs as one artifact.  A page is the {!Util.Table.t} values its
    command prints, rendered by {!Util.Table.html}, plus the charts
    that have no table form: energy and stall bars, engine overhead
    bars, the explain heatmap and the why delta bars. *)

val render : ?compare:Manifest.t -> ?explain:Explain.kernel_report list -> Manifest.t -> string
(** The run report: headline mean normalized energy, then run
    options, per-benchmark energy-breakdown bars (stacked by
    register-file level, width proportional to normalized energy),
    benchmark results, stall-attribution bars with the active-set
    residency table, phase times, the metrics registry
    ({!Metrics.to_table}) and the top allocator audit events.

    With [?compare] the headline and the results table also show
    deltas against the baseline manifest.

    With [?explain] (one {!Explain.kernel_report} per kernel, as
    assembled by [rfh explain]) the report gains an "Allocation
    explainer" section: per kernel, {!Explain.decision_table} and an
    energy heatmap over the instruction stream whose row backgrounds
    scale with each instruction's attributed register-file energy. *)

val render_engine_page : Engine.report list -> string
(** What [rfh engine --report-out] writes: {!Engine.tables}, in the
    order [rfh engine] prints them, then one overhead bar per jobs
    setting and per region, and the compute/gc split of useful time. *)

val render_trend_page :
  history_path:string ->
  records:History.t list ->
  rejected:int ->
  Trend.gate_result ->
  string
(** What [rfh trend --html-out] writes: the gate verdict banner and
    {!Trend.table}.  [rejected] is the undecodable-line count from
    {!History.load}. *)

val render_why_page :
  baseline_label:string -> candidate_label:string -> Rootcause.t -> string
(** What [rfh why --report-out] writes: attribution self-check banner,
    top-cause headline, the ranked cause and metric delta tables
    [rfh why] prints, per-benchmark signed metric delta bars (red =
    bad direction: IPC down or energy up), then the {!Stall_diff} and
    {!Explain_diff} tables when those inputs were supplied.  The
    labels are the input paths. *)

val write_page : path:string -> string -> unit
(** Write a rendered page to [path].  @raise Sys_error on I/O failure. *)
