(** Regression gate: structural diff of two run manifests.

    The diff walks both JSON trees together and applies a path-aware
    comparison policy:

    - numbers that are integral on both sides (deterministic counts:
      accesses, allocator stats, traffic, metric counters, span call
      counts) are compared {e exactly};
    - other numbers (energies, ratios, histogram sums) are compared
      with relative tolerance [float_tol] — they are deterministic for
      a fixed summation order but parallel histogram merges may
      reassociate float adds;
    - paths ending in [total_ms] are wall-clock timings: skipped
      unless [timing_tol] is given;
    - [options.jobs] is ignored — parallelism must not change results,
      and the gate enforces exactly that by comparing everything else;
    - the [meta] section (host fingerprint, schema v3) is ignored
      wholesale — a baseline recorded on one host must check cleanly
      on another;
    - missing/extra object keys, array length and type mismatches are
      always violations. *)

type violation = {
  path : string;  (** e.g. ["benches[fft].counts.mrf.writes.private"] *)
  kind : string;
  expected : string;  (** baseline value *)
  actual : string;  (** current value *)
}

type report = { violations : violation list; compared : int }

val ok : report -> bool

val diff :
  ?float_tol:float ->
  ?timing_tol:float ->
  baseline:Manifest.t ->
  current:Manifest.t ->
  unit ->
  report
(** [float_tol] defaults to {!Json.float_tol}.  [timing_tol] absent means timing
    fields are not compared at all.  Both manifests are compared as a
    file stores them: after one {!Json} encode/decode round trip, which
    keeps 12 significant digits of a non-integral number.  So a fresh
    run diffs clean against its own recorded file at [float_tol] 0. *)

val diff_json :
  ?float_tol:float ->
  ?timing_tol:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  report
(** Same policy over raw JSON trees (used by tests to perturb single
    fields without rebuilding a manifest). *)

val to_table : report -> Util.Table.t
(** Human-readable violations table; the title states OK or the
    violation count. *)

val to_json : report -> Json.t
(** Machine-readable report ([rfh baseline check --json-out]): ok
    flag, compared count and the violation list in diff order.  Fixed
    field order, byte-stable. *)
