(** Cross-run performance history: one compact JSONL record per run.

    Every other observability layer (manifests, timelines, engine
    profiles) describes exactly one run; this one accumulates.  Each
    appender — the perfgate and [rfh … --history-out] — adds one
    schema-versioned line to [baselines/history.jsonl] carrying
    whatever that run measured: per-benchmark IPC / normalized energy
    / stall-cause shares, perfgate ns-per-run and minor words, total
    wall time — always stamped with the UTC timestamp, host
    fingerprint (which includes the git revision and dirty flag) and
    jobs setting.
    {!Trend} turns the accumulated series into drift verdicts and
    [rfh trend] renders them.

    The encoding is byte-stable (fixed field order, idempotent number
    printing): two records built from the same measurements differ
    only in timestamp and git revision.  {!load} skips lines it cannot
    decode instead of failing — a history file survives partial
    writes, merges and schema drift, reporting how much it skipped.
    Sections it does not know are ignored, so records written by the
    retired bench harness (with [engine], [gc] and [jobs2_slower]
    sections) still load. *)

val schema_version : int

type bench_point = {
  hb_bench : string;
  hb_ipc : float;
  hb_norm_energy : float;
  hb_stalls : (string * float) list;
      (** per stall cause, its {e share} of [cycles × warps] (0..1), in
          manifest order; shares rather than raw warp-cycles so runs
          with different cycle counts stay comparable *)
}

type perfgate = {
  pg_ns_per_run : float;  (** median over the probe's timed runs *)
  pg_p90_ns : float;
  pg_minor_words : float;
  pg_runs : int;  (** timed runs the median/p90 summarize *)
  pg_promoted_words : float option;
      (** promoted words per probed run; [None] in records written
          before the promotion gate existed (field omitted from the
          encoding, so old lines round-trip byte-identically) *)
  pg_major_words : float option;  (** major words per probed run *)
}

type t = {
  timestamp : string;  (** UTC, {!Host.utc_now} format *)
  source : string;  (** ["perfgate"], ["rfh"] … *)
  host : Host.t;
  jobs : int;
  wall_s : float;  (** whole-run wall clock of the appender *)
  benches : bench_point list;
  perfgate : perfgate option;
}

val of_manifest :
  ?timestamp:string ->
  ?host:Host.t ->
  ?perfgate:perfgate ->
  source:string ->
  wall_s:float ->
  Manifest.t ->
  t
(** Build a record from a collected run manifest: one {!bench_point}
    per manifest bench (stall counts converted to shares), [jobs] from
    the manifest options.  [timestamp]/[host] default to now/here —
    pass them explicitly to get byte-reproducible records in tests. *)

val to_json : t -> Json.t
val to_string : t -> string
val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

val append : path:string -> t -> unit
(** Append one record as a single JSONL line, creating parent
    directories as needed.
    @raise Sys_error on I/O failure. *)

val load : path:string -> t list * int
(** All decodable records in file order, plus the number of
    non-empty lines that failed to decode (garbage, foreign schema).
    A missing file loads as [([], 0)]. *)
