(** Stall-attribution and scheduler-residency deltas between two run
    manifests (schema v2+).

    Each manifest bench carries the exact 7-cause stall breakdown of
    its reference perf run (warp-cycles per cause, summing to
    cycles × warps) plus the active-set residency counters.  {!diff}
    converts the counts of each side into shares of that side's own
    budget — runs with different cycle counts stay comparable — and
    reports the per-cause share delta next to the raw counts, plus the
    residency/deschedule-count deltas.

    {!check} verifies the exactness the counts promise: per side the
    shares sum to 1 (so the per-cause deltas sum to 0), counts are
    nonnegative, and both sides list the same causes in the same
    order. *)

type cause_delta = {
  cd_cause : string;  (** {!Timeline.state_name} key *)
  cd_count_a : int;
  cd_count_b : int;
  cd_share_a : float;  (** count / (cycles × warps) of side a *)
  cd_share_b : float;
  cd_delta : float;  (** [cd_share_b -. cd_share_a] *)
}

type sched_delta = {
  sd_entries : int * int;  (** (baseline, candidate) *)
  sd_exits : int * int;
  sd_resident_cycles : int * int;
  sd_mean_residency : float * float;  (** resident cycles / exits *)
  sd_desched_long_latency : int * int;
  sd_desched_strand_boundary : int * int;
  sd_desched_bank_conflict : int * int;
}

type bench_diff = {
  sb_bench : string;
  sb_total_a : int;  (** cycles × warps budget of side a *)
  sb_total_b : int;
  sb_causes : cause_delta list;  (** manifest stall order *)
  sb_sched : sched_delta;
}

type t = {
  s_benches : bench_diff list;  (** benches present on both sides *)
  s_only_a : string list;  (** bench names only in the baseline *)
  s_only_b : string list;
}

val diff : baseline:Manifest.t -> current:Manifest.t -> t

val check : t -> string list
(** Empty = sound: per bench and side, shares sum to 1 (within 1e-9)
    so the deltas sum to 0; all counts nonnegative; cause lists agree.
    A bench with an all-zero stall budget (no perf run recorded) is
    skipped rather than failed. *)

val tables : t -> Util.Table.t list
(** One table per common bench: per-cause warp-cycle counts on each
    side and the share delta in percentage points. *)
