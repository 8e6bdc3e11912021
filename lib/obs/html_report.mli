(** Self-contained HTML pages.

    Each page is a single file with inline CSS and no scripts or
    external assets — it opens from disk offline and attaches to CI
    runs as one artifact.  A page is a list of blocks: the
    {!Util.Table.t} values its command prints, rendered by
    {!Util.Table.html}, plus the charts and banners that have no table
    form (energy and stall bars, engine overhead bars, the explain
    heatmap, the why delta bars, the trend and why verdicts), plus the
    run report where the command collects a manifest. *)

type block =
  | Table of Util.Table.t  (** rendered by {!Util.Table.html}, title as caption *)
  | Html of string  (** a rendered chart, banner or heading *)

val page : title:string -> block list -> string
(** The document: [title] as its title and heading, then the blocks
    in order. *)

val write_page : path:string -> string -> unit
(** Write a rendered page to [path].  @raise Sys_error on I/O failure. *)

val heading : string -> block
(** A section heading. *)

val muted : string -> block
(** One line of muted text. *)

val render : ?compare:Manifest.t -> Manifest.t -> block list
(** The run report: headline mean normalized energy, then run
    options, per-benchmark energy-breakdown bars (stacked by
    register-file level, width proportional to normalized energy),
    benchmark results, stall-attribution bars with the active-set
    residency table, phase times, the metrics registry
    ({!Metrics.to_table}) and the top allocator audit events.  With
    [?compare] the headline and the results table also show deltas
    against the baseline manifest. *)

val explain_header : Explain.kernel_report -> block
(** One kernel's explain section heading: its name, decision and
    placement counts and attributed energy. *)

val heatmap : Explain.kernel_report -> block
(** The kernel's energy heatmap over its instruction stream: row
    backgrounds scale with each instruction's attributed
    register-file energy. *)

val engine_bars : Engine.report list -> block
(** One overhead bar per jobs setting and per region (the seven
    categories of wall x domains), then the compute/gc split of
    useful time. *)

val trend_header : records:History.t list -> Trend.gate_result -> block
(** The history's time span and the gate verdict: no drift, the
    drifting gated series with their change points, or too little
    history. *)

val trend_note : block
(** How to read the trend table's z and shift columns. *)

val why_header :
  baseline_label:string -> candidate_label:string -> Rootcause.t -> block
(** The inputs (the labels are their paths), the attribution
    self-check verdict, the top cause and any benchmark present on one
    side only. *)

val why_details : Rootcause.t -> block list
(** Per-benchmark signed metric delta bars (red = bad direction: IPC
    down or energy up), then {!Rootcause.stall_tables} and, when
    explain streams were supplied, the {!Explain_diff} tables. *)
