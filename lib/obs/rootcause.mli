(** Ranked differential root-cause analysis — the [rfh why] engine.

    Combines three delta sources into one deterministic cause table:
    manifest metric deltas (IPC, normalized energy, total energy,
    per-level RF energy), per-cause stall-share deltas
    ({!Stall_diff}), and allocation-decision flips ({!Explain_diff},
    when explain streams are supplied).  Each cause is quantified —
    e.g. ["mm: 14 ranges moved orf -> mrf, explaining +38% rf
    energy"] — and scored on a comparable 0..1-ish scale: metrics by
    signed relative delta magnitude, stalls by share-delta magnitude,
    allocation moves by the fraction of aligned ranges that moved.

    Determinism contract: causes are sorted by score descending, ties
    broken by (bench, kind, what); every float prints through the
    fixed ["%.4g"] format; and the inputs themselves are
    jobs-independent (manifests are byte-stable, explain streams are
    sorted before alignment) — so the ranked table is byte-identical
    across [--jobs] settings.  {!check} is the exact-attribution
    self-check in the spirit of [Obs.Engine.check]. *)

type kind =
  | Metric  (** a manifest scalar moved *)
  | Stall  (** a stall cause's share of the cycle budget moved *)
  | Alloc  (** aligned live ranges changed allocation outcome *)

val kind_name : kind -> string
(** ["metric"] / ["stall"] / ["alloc"]. *)

type cause = {
  c_bench : string;  (** benchmark (or kernel, for alloc causes) *)
  c_kind : kind;
  c_what : string;  (** e.g. ["norm_energy"], ["stall long_latency"],
                        ["moved orf -> mrf"] *)
  c_delta : string;  (** quantified human-readable delta *)
  c_score : float;  (** ranking weight, always > 0 *)
  c_count : int;  (** ranges/warp-cycles involved; 0 for metrics *)
}

(** One bench-level scalar compared across the two sides; feeds the
    HTML delta bars and the [delta] table. *)
type metric_delta = {
  md_bench : string;
  md_metric : string;  (** ["ipc"], ["norm_energy"], ["total_pj"],
                           ["energy:mrf"] … *)
  md_a : float;
  md_b : float;
  md_rel : float;  (** signed [(b - a) / max |a| |b|]; 0 when both 0 *)
}

type t = {
  r_causes : cause list;  (** ranked, score descending *)
  r_metrics : metric_delta list;  (** bench then metric order, all
                                      benches common to both sides *)
  r_stalls : Stall_diff.t option;
  r_explain : Explain_diff.t option;
  r_only_a : string list;  (** bench names only in the baseline *)
  r_only_b : string list;
}

val analyze :
  ?explain:Explain_diff.t ->
  baseline:Manifest.t ->
  candidate:Manifest.t ->
  unit ->
  t
(** Full three-source analysis of two manifests (plus an optional
    pre-aligned explain diff).  Zero-magnitude causes are dropped, so
    two identical runs rank no causes at all: metric deltas below
    1e-9 relative (the {!Regress} float tolerance — JSON round-trip
    noise the gate itself would not flag) and stall-share deltas
    below 1e-12 (shares are ratios of exact integers). *)

val of_history : before:History.t -> after:History.t -> t
(** Reduced analysis over two history records (IPC / normalized
    energy / stall shares only — that is all a history line carries).
    Used by [rfh trend --check --why] to diagnose the offending
    record against its predecessor. *)

val top_cause : t -> cause option

val check : t -> string list
(** Exact-attribution self-check: empty = sound.  Verifies the
    ranking is monotone in score with deterministic tie order, every
    cause scores > 0, every metric cause points at a real metric
    delta, and the embedded {!Stall_diff.check} / {!Explain_diff.check}
    accountings hold. *)

val to_table : ?top:int -> t -> Util.Table.t
(** ["Ranked causes"]: one row per cause ([top] defaults to all) —
    rank, score, kind, bench, and the cause with its quantified delta.
    Byte-deterministic; [rfh why] prints it and its [--report-out]
    page renders it. *)

val delta_table : t -> Util.Table.t
(** ["Metric deltas"]: per-benchmark metric deltas (all metrics,
    including unchanged ones), byte-deterministic. *)

val to_json : t -> Json.t
(** Machine-readable analysis: ranked causes, metric deltas, stall
    and explain summaries, self-check verdict.  Fixed field order. *)
