(** Warp pipeline timeline: per-warp state intervals.

    The cycle simulator ({!Sim.Perf}) classifies every warp-cycle into
    one pipeline {!state} and reports maximal runs of equal state as
    half-open intervals [\[start, stop)] measured in cycles.  For each
    warp the emitted intervals tile [\[0, cycles)] exactly — the
    breakdown they induce sums to [cycles x warps], recorder on or off.

    Intervals go through a {!Recorder}, emitted deterministically at
    the end of the run (warps ascending, then interval start
    ascending) so a fixed seed yields byte-identical JSONL at any
    [--jobs] setting. *)

(** Why a warp did (or did not) issue on a cycle.  One value per
    warp-cycle:
    - [Issued]: the warp issued this cycle's instruction.
    - [Wait_long_latency]: blocked on a long-latency result (or, under
      the strand-boundary policy, holding at a strand boundary while
      long-latency operations drain).
    - [Wait_short_latency]: blocked on a short-latency producer.
    - [Bank_conflict_serialization]: the operands' base latency has
      elapsed and only banked-MRF conflict serialization still blocks
      the warp (never occurs with ideal operand fetch).
    - [Descheduled_pending]: out of the active set, waiting to re-enter.
    - [No_issue_slot]: ready to issue but lost round-robin arbitration
      (an earlier warp took the cycle's issue slot) or the function
      unit's issue port is busy.
    - [Finished]: the warp's instruction stream is exhausted. *)
type state =
  | Issued
  | Wait_long_latency
  | Wait_short_latency
  | Bank_conflict_serialization
  | Descheduled_pending
  | No_issue_slot
  | Finished

val all_states : state list
(** Every state, in canonical (display and encoding) order. *)

val state_name : state -> string
val state_of_name : string -> state option

type interval = {
  warp : int;
  state : state;
  start : int;  (** first cycle in the state (inclusive) *)
  stop : int;  (** first cycle after the state (exclusive) *)
}

include Recorder.S with type t = interval

(** {1 Encoding} *)

val to_json : interval -> Json.t
val of_json : Json.t -> (interval, string) result
val pp : Format.formatter -> interval -> unit
