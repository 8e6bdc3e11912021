(** Drift detection over the cross-run {!History}.

    Each numeric quantity a history record carries (per-benchmark IPC
    and normalized energy, perfgate ns-per-run / p90 / minor words,
    wall time) becomes a named {!series} of sparse
    points [(record_index, value)] — sparse because records from
    different appenders carry different sections.  {!analyze} applies
    robust statistics: median and MAD for location/scale, a
    MAD-derived z-score for the latest point, and change-point
    segmentation (binary segmentation on segment medians, significance
    gated by both the local MAD and a relative floor so flat series
    never split).  The verdict compares the last segment against the
    one before it:

    - no change points: {!Stable}, or {!Noisy} when the spread
      (MAD/|median|) exceeds {!noisy_ratio};
    - shifted beyond the series tolerance in the bad direction:
      {!Regressed};
    - shifted beyond tolerance in the good direction: {!Improved}.

    {!gate} is the CI face: exit 0 clean, 1 when any {e gated} series
    sustained a regression (naming the series, the offending record
    and its git revision), 2 when the history is too short to judge. *)

type direction =
  | Lower_better  (** ns/run, energy, stall shares… *)
  | Higher_better  (** IPC, useful share… *)

type verdict = Stable | Improved | Regressed | Noisy

type series = {
  s_name : string;  (** e.g. ["bench.VectorAdd.ipc"], ["perfgate.ns_per_run"] *)
  s_dir : direction;
  s_tol : float;  (** relative shift below which a step is not a verdict *)
  s_gated : bool;  (** whether {!gate} may fail CI on this series *)
  points : (int * float) array;  (** (record index, value), index-ascending *)
}

type analysis = {
  a_series : series;
  a_median : float;
  a_mad : float;  (** raw median absolute deviation (unscaled) *)
  a_latest : float;
  a_latest_z : float;  (** robust z of the latest point vs the whole series *)
  a_change_points : int list;
      (** positions into [points] where a new segment starts, ascending *)
  a_shift : float;
      (** relative shift of the last segment median vs the previous
          segment's (0 when there is no change point) *)
  a_verdict : verdict;
}

val noisy_ratio : float
(** MAD/|median| spread above which a series without change points is
    called {!Noisy} instead of {!Stable}. *)

val median : float array -> float
(** 0 on the empty array. *)

val mad : float array -> float
(** Median absolute deviation about the median (unscaled; multiply by
    1.4826 for a normal-consistent sigma).  0 on the empty array. *)

val rolling_median : window:int -> float array -> float array
(** Trailing-window median smoother, same length as the input. *)

val sparkline : float array -> string
(** Unicode block sparkline (▁▂▃▄▅▆▇█) of the values, min-max
    normalized; empty string for the empty array. *)

val change_points : ?min_seg:int -> float array -> int list
(** Binary segmentation: ascending positions where a new segment
    starts.  The candidate split minimizes the summed
    least-absolute-deviations cost of the two halves (exact
    localization at a clean step); it is accepted only when the
    median jump clears both 3 sigmas of the pooled residual deviation
    about the segment medians and a 5% relative floor, and both sides
    keep at least [min_seg] (default 3) points. *)

val analyze : series -> analysis

val verdict_name : verdict -> string
(** ["stable"], ["improved"], ["regressed"], ["noisy"]. *)

val series_of_history : History.t list -> series list
(** All series present in the records, stable order: per-benchmark
    IPC (gated, higher better, tol 5%) and normalized energy (gated,
    lower better, tol 5%) in first-seen bench order, then perfgate
    ns-per-run (gated, tol 35% — it is wall-clock), p90 (ungated),
    minor/promoted/major words (gated, tol 50%), wall time
    (ungated). *)

type failure = {
  f_series : string;
  f_index : int;  (** history record index where the last segment starts *)
  f_rev : string;  (** git revision of that record *)
  f_source : string;  (** offending record's appender (["perfgate"], ["rfh"] …) *)
  f_jobs : int;  (** offending record's jobs setting *)
  f_before : float;  (** previous segment median *)
  f_after : float;  (** last segment median *)
}

type gate_result = {
  g_exit : int;  (** 0 clean, 1 sustained drift, 2 not enough history *)
  g_failures : failure list;
  g_analyses : analysis list;
}

val gate : ?min_records:int -> History.t list -> gate_result
(** [min_records] defaults to 3: with fewer records the result is
    exit 2 and no analyses are attempted. *)

val table :
  history_path:string -> rejected:int -> History.t list -> gate_result -> Util.Table.t
(** The series table [rfh trend] prints and its [--html-out] dashboard
    renders: one row per analysis (name, n, median, MAD, latest, z,
    shift, verdict, change points as [#record@rev], Unicode
    sparkline).  The title names the record count, [history_path]
    and the [rejected] undecodable-line count from {!History.load}. *)
